"""RunConfig validation at load time."""

from __future__ import annotations

import json

import pytest

from graphfc import cli
from graphfc.backend import PURPOSES, CostLedger, cache_key
from graphfc.config import ConfigError, build_backends, load_config


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def scripted(**section):
    return {"type": "scripted", **section}


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


class TestTypes:
    @pytest.mark.parametrize(
        "name,value",
        [("k", "10"), ("k", 2.5), ("k", True), ("include_definitions", 1),
         ("pipeline", 3), ("corpus", ["a.jsonl"])],
    )
    def test_wrong_type_names_the_field(self, tmp_path, name, value):
        with pytest.raises(ConfigError, match=name):
            load_config(write_config(tmp_path, {name: value}))

    def test_wrong_type_in_backend_section_names_the_role(self, tmp_path):
        path = write_config(tmp_path, {"backends": {"selection": scripted(timeout="5")}})
        with pytest.raises(ConfigError, match="selection.*timeout"):
            load_config(path)

    def test_int_is_accepted_for_a_float(self, tmp_path):
        path = write_config(tmp_path, {"backends": {"default": scripted(temperature=1)}})
        assert load_config(path).backends["default"].temperature == 1

    def test_integer_temperature_keys_the_cache_as_greedy(self, tmp_path):
        # An integer 0 loads as 0.0, so its requests share the default's cache entries.
        path = write_config(tmp_path, {"backends": {"default": scripted(temperature=0)}})
        suite, _ = build_backends(load_config(path))
        assert cache_key("m", suite.request("verification", "p")) == (
            "52691b074fe218b33e087f4a654fdb41f5875d952b8dc96163aeb592ff2789a6"
        )

    def test_null_in_a_backend_section_keeps_the_default(self, tmp_path):
        path = write_config(tmp_path, {"backends": {"default": scripted(temperature=None, timeout=None)}})
        section = load_config(path).backends["default"]
        assert (section.temperature, section.timeout) == (0.0, 60.0)

    @pytest.mark.parametrize("payload,name", [
        ({"prices": {"m": [float("nan"), 1]}}, "prices 'm'"),
        ({"prices": {"m": {"output_per_1k": float("inf")}}}, "prices 'm'"),
        ({"backends": {"default": scripted(timeout=float("inf"))}}, "backend default: timeout"),
        ({"backends": {"default": scripted(retry_base_delay=float("inf"))}}, "backend default: retry_base_delay"),
        ({"backends": {"selection": scripted(temperature=float("nan"))}}, "backend selection: temperature"),
        ({"backends": {"selection": scripted(top_p=float("-inf"))}}, "backend selection: top_p"),
    ])
    def test_non_finite_number_is_a_config_error_naming_the_field(self, tmp_path, capsys, payload, name):
        # Python's json reads NaN, Infinity and -Infinity.
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
            load_config(path)
        assert cli.main(["index", "--config", path]) == cli.EXIT_CONFIG == 1
        assert f"{name} must be a finite number" in capsys.readouterr().err

    def test_cli_reports_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"k": "10"})
        assert cli.main(["index", "--config", path]) == cli.EXIT_CONFIG
        assert "k must be of type int" in capsys.readouterr().err


class TestMaxNewTokens:
    def policies(self, tmp_path, backends):
        config = load_config(write_config(tmp_path, {"backends": backends}))
        suite, _ = build_backends(config, CostLedger())
        return {role: policy.max_new_tokens for role, policy in suite.policies.items()}

    def test_role_defaults(self, tmp_path):
        assert self.policies(tmp_path, {"default": scripted()}) == {
            "graph_construction": 1024, "infilling": 32, "verification": 32, "selection": 32,
        }

    def test_explicit_value_is_kept(self, tmp_path):
        tokens = self.policies(tmp_path, {"default": scripted(max_new_tokens=32),
                                          "verification": scripted(max_new_tokens=8)})
        assert tokens == {
            "graph_construction": 32, "infilling": 32, "verification": 8, "selection": 32,
        }

    @pytest.mark.parametrize("value", [0, -5])
    def test_value_below_one_is_rejected_at_load(self, tmp_path, value):
        path = write_config(tmp_path, {"backends": {"infilling": scripted(max_new_tokens=value)}})
        with pytest.raises(ConfigError, match="infilling.*max_new_tokens"):
            load_config(path)


class TestSamplingSettings:
    """temperature and top_p are checked at load, instead of being sent with
    every request of every claim."""

    @pytest.mark.parametrize("name,value,bound", [
        ("temperature", -1, ">= 0"), ("temperature", -0.01, ">= 0"),
        ("top_p", 0, r"in \(0, 1\]"), ("top_p", -0.5, r"in \(0, 1\]"),
        ("top_p", 1.01, r"in \(0, 1\]"), ("top_p", 5, r"in \(0, 1\]"),
    ])
    def test_out_of_range_is_a_config_error_naming_the_role(self, tmp_path, capsys, name, value, bound):
        path = write_config(tmp_path, {"backends": {"selection": scripted(**{name: value})}})
        with pytest.raises(ConfigError, match=f"backend selection: {name} must be {bound}"):
            load_config(path)
        assert cli.main(["index", "--config", path]) == cli.EXIT_CONFIG == 1

    @pytest.mark.parametrize("name,value", [
        ("temperature", 0), ("temperature", 1), ("temperature", 0.7),
        ("top_p", 1), ("top_p", 0.01), ("top_p", 0.9),
    ])
    def test_edges_are_accepted(self, tmp_path, name, value):
        config = load_config(write_config(tmp_path, {"backends": {"default": scripted(**{name: value})}}))
        suite, _ = build_backends(config)
        assert {getattr(policy, name) for policy in suite.policies.values()} == {value}


class TestRequestSettings:
    """A backend section's retry and timeout settings are checked at load,
    instead of failing every claim's first request."""

    def load_http(self, tmp_path, **section):
        backend = {"type": "http", "endpoint": "http://localhost:1/v1", **section}
        return load_config(write_config(tmp_path, {"backends": {"verification": backend}}))

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_attempts_below_one_is_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="verification.*max_attempts must be >= 1"):
            self.load_http(tmp_path, max_attempts=value)
        assert self.load_http(tmp_path, max_attempts=1).backends["verification"].max_attempts == 1

    @pytest.mark.parametrize("value", [0, -2.5])
    def test_timeout_must_be_positive(self, tmp_path, value):
        with pytest.raises(ConfigError, match="verification.*timeout must be > 0"):
            self.load_http(tmp_path, timeout=value)
        assert self.load_http(tmp_path, timeout=0.5).backends["verification"].timeout == 0.5

    def test_negative_retry_base_delay_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="verification.*retry_base_delay must be >= 0"):
            self.load_http(tmp_path, retry_base_delay=-0.1)
        section = self.load_http(tmp_path, retry_base_delay=0).backends["verification"]
        assert section.retry_base_delay == 0

    @pytest.mark.parametrize("endpoint", [
        "localhost:8000/v1/chat/completions",  # no scheme
        "http:/v1",                            # no host
        "ftp://localhost/v1",
        "http://localhost:80800/v1",           # a port out of range
        "",
    ])
    def test_endpoint_must_be_an_http_url_with_a_host(self, tmp_path, endpoint, capsys):
        with pytest.raises(ConfigError, match="verification: endpoint must be an http or https URL"):
            self.load_http(tmp_path, endpoint=endpoint)
        path = write_config(tmp_path, {"backends": {"verification": {"type": "http", "endpoint": endpoint}}})
        assert cli.main(["index", "--config", path]) == cli.EXIT_CONFIG
        assert "endpoint must be" in capsys.readouterr().err
        assert self.load_http(tmp_path, endpoint="https://[::1]:8443/v1").backends

    def test_proxy_variable_without_a_host_is_a_config_error(self, tmp_path, monkeypatch):
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", "http://:3128")
        backend = {"type": "http", "endpoint": "http://localhost:1/v1"}
        config = load_config(write_config(tmp_path, {"backends": {"default": backend}}))
        with pytest.raises(ConfigError, match="graph_construction: http_proxy must be"):
            build_backends(config)


class TestKnownKeysAndValues:
    def test_unknown_top_level_key_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="truncation_char"):
            load_config(write_config(tmp_path, {"truncation_char": 5}))

    def test_sections_and_scalar_fields_are_accepted(self, tmp_path):
        path = write_config(tmp_path, {
            "k": 5, "truncation_chars": 100, "backends": {"default": scripted()},
            "prices": {"m": {"input_per_1k": 0.5, "output_per_1k": 1.5}},
        })
        config = load_config(path)
        assert (config.k, config.truncation_chars, config.prices) == (5, 100, {"m": (0.5, 1.5)})

    @pytest.mark.parametrize("value", ["greedy", "sample", "beam", "GREEDY"])
    def test_decode_mode_is_an_unknown_key(self, tmp_path, value, capsys):
        # The temperature alone decides decoding: 0 is greedy, above 0 samples.
        path = write_config(tmp_path, {"backends": {"verification": scripted(decode_mode=value)}})
        message = r"backend verification: unknown backend config keys: \['decode_mode'\]"
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert cli.main(["index", "--config", path]) == cli.EXIT_CONFIG

    def test_unknown_dataset_format_is_rejected_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset_format must be one of .* got 'xml'"):
            load_config(write_config(tmp_path, {"dataset_format": "xml"}))

    def test_unknown_dataset_format_makes_eval_exit_with_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"dataset_format": "xml"})
        assert cli.main(["eval", "--config", path]) == cli.EXIT_CONFIG == 1
        assert "dataset_format must be one of" in capsys.readouterr().err

    def test_backend_type_must_be_http_or_scripted(self, tmp_path):
        path = write_config(tmp_path, {"backends": {"selection": {"type": "grpc"}}})
        with pytest.raises(ConfigError, match="selection.*type"):
            load_config(path)


class TestLoadErrors:
    """Config problems that reach no later stage: each is a config error at load."""

    @pytest.mark.parametrize("content,message", [
        (None, "config file does not exist: "),
        ('{"k": 3,}', "invalid JSON"),
    ])
    def test_missing_or_invalid_config_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        assert cli.main(["index", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("backends,message", [
        ({"verification": scripted(temprature=0.5)}, r"unknown backend config keys: \['temprature'\]"),
        ({"verifier": scripted()}, "unknown backend role 'verifier'"),
    ])
    def test_unknown_backend_key_or_role(self, tmp_path, backends, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, {"backends": backends}))

    def test_role_without_a_section_or_default(self, tmp_path):
        config = load_config(write_config(tmp_path, {"backends": {"verification": scripted()}}))
        with pytest.raises(ConfigError, match="no backend configured for role 'graph_construction'"):
            build_backends(config)


class TestBackendSharing:
    """Roles that resolve to one section share one backend."""

    def suite(self, tmp_path, backends):
        suite, _ = build_backends(load_config(write_config(tmp_path, {"backends": backends})))
        return suite

    def test_default_section_is_one_backend_for_every_role(self, tmp_path):
        suite = self.suite(tmp_path, {"default": scripted()})
        assert len({id(suite.backend_for(p)) for p in PURPOSES}) == 1

    def test_two_sections_give_two_backends(self, tmp_path):
        suite = self.suite(tmp_path, {"default": scripted(), "verification": scripted(model="v")})
        verifier = suite.backend_for("verification")
        others = {id(suite.backend_for(p)) for p in PURPOSES if p != "verification"}
        assert len(others) == 1 and id(verifier) not in others
        assert verifier.model == "v"

    def test_shared_cache_path_wraps_each_backend_around_one_store(self, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        suite = self.suite(tmp_path, {"default": scripted(cache_path=cache),
                                      "selection": scripted(cache_path=cache)})
        graph, selection = suite.backend_for("graph_construction"), suite.backend_for("selection")
        assert graph is not selection and graph.store is selection.store


class TestPrices:
    def test_object_and_list_forms(self, tmp_path):
        path = write_config(tmp_path, {"prices": {
            "a": {"input_per_1k": 0.5}, "b": [1, 2.5], "c": {},
        }})
        assert load_config(path).prices == {"a": (0.5, 0.0), "b": (1.0, 2.5), "c": (0.0, 0.0)}

    @pytest.mark.parametrize("price", [
        {"input_per_1k": "cheap"},   # not a number
        {"output_per_1k": True},
        [0.5],                        # a list of the wrong length
        [0.5, 1.5, 2.5],
        ["0.5", 1.5],
        0.5,                          # neither a list nor an object
        "0.5",
        {"input_per_1K": 0.5},        # an unknown key
        [-0.5, 1.5],                  # a negative price
    ])
    def test_bad_price_names_the_model(self, tmp_path, price):
        path = write_config(tmp_path, {"prices": {"big-model": price}})
        with pytest.raises(ConfigError, match="prices 'big-model'"):
            load_config(path)

    @pytest.mark.parametrize("payload", [{"prices": [0.5, 1.5]}, {"backends": ["scripted"]},
                                         {"backends": {"default": "scripted"}}, [1]])
    def test_sections_must_be_objects(self, tmp_path, payload):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(write_config(tmp_path, payload))

    def test_cli_exits_with_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"prices": {"big-model": {"input_per_1k": "cheap"}}})
        assert cli.main(["index", "--config", path]) == cli.EXIT_CONFIG
        assert "prices 'big-model'" in capsys.readouterr().err
