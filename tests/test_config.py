"""RunConfig validation at load time."""

from __future__ import annotations

import pytest

from graphfc.config import ConfigError, load_config


class TestValidate:
    @pytest.mark.parametrize("value", [0, -100])
    def test_truncation_chars_must_be_positive(self, value):
        # A negative budget would make text[:budget] cut evidence from the end.
        with pytest.raises(ConfigError, match="truncation_chars"):
            load_config(None, {"truncation_chars": value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_workers_must_be_positive(self, value):
        with pytest.raises(ConfigError, match="workers"):
            load_config(None, {"workers": value})
