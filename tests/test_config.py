import os
import re
from pathlib import Path

import pytest

from mmbattn.config import (_REQUIRED, _RUN_KEYS, _SCHEMA_KEYS, _SYNTH_KEYS, _canon,
                            load_run_config, load_schema, load_synth_spec, parse_kv)
from mmbattn.errors import ConfigError

TINY = """\
run.seeds = 1,2
data.synth = synth.conf
model.embedding_dim = 4
model.hidden_sizes = 16
train.batch_size = 64
"""

SYNTH = """\
synth.rows = 100
synth.fields = 2
synth.cardinality = 4
synth.informative = 0
"""


@pytest.fixture
def cfg_dir(tmp_path):
    (tmp_path / "run.conf").write_text(TINY)
    (tmp_path / "synth.conf").write_text(SYNTH)
    return tmp_path


def conf_file(tmp_path, text):
    path = tmp_path / "kv.conf"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseKv:
    def test_comments_and_blanks(self, tmp_path):
        kv = parse_kv(conf_file(tmp_path, "# comment\n\na.b = 1  # trailing\n"))
        assert kv == {"a.b": "1"}

    def test_missing_equals(self, tmp_path):
        path = conf_file(tmp_path, "a.b 1\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:1: expected 'key = value'")):
            parse_kv(path)

    def test_nesting_depth_enforced(self, tmp_path):
        for key in ("a.b.c", "plain"):
            path = conf_file(tmp_path, f"{key} = 1\n")
            message = f"{path}:1: key {key!r} must be 'section.key'"
            with pytest.raises(ConfigError, match=re.escape(message)):
                parse_kv(path)

    def test_duplicate_key(self, tmp_path):
        path = conf_file(tmp_path, "a.b = 1\na.b = 2\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: duplicate")):
            parse_kv(path)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = conf_file(tmp_path, "\ufeffrun.seeds = 1\na.b 2\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: expected 'key = value'")):
            parse_kv(path)
        assert parse_kv(conf_file(tmp_path, "\ufeffrun.seeds = 1\n")) == {"run.seeds": "1"}
        (tmp_path / "run.conf").write_text("\ufeff" + TINY, encoding="utf-8")
        (tmp_path / "synth.conf").write_text(SYNTH, encoding="utf-8")
        assert load_run_config(tmp_path / "run.conf").seeds == (1, 2)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.conf: cannot read"):
            parse_kv(tmp_path / "missing.conf")

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.conf"
        path.write_bytes("run.out = caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="latin1.conf: not UTF-8"):
            parse_kv(path)


class TestRunConfig:
    def test_load_and_defaults(self, cfg_dir):
        cfg = load_run_config(cfg_dir / "run.conf")
        assert cfg.seeds == (1, 2)
        assert cfg.embedding_dim == 4
        assert cfg.tower.hidden_sizes == (16,)
        assert cfg.attn.reduction_ratio == 3  # default
        assert cfg.train.batch_size == 64

    def test_unknown_key_named(self, cfg_dir):
        (cfg_dir / "bad.conf").write_text(TINY + "model.dropout = 0.5\n")
        with pytest.raises(ConfigError, match="model.dropout"):
            load_run_config(cfg_dir / "bad.conf")

    def test_removed_cache_dir_key_rejected(self, cfg_dir):
        with pytest.raises(ConfigError, match="unknown config key 'data.cache_dir'"):
            load_run_config(cfg_dir / "run.conf", ["data.cache_dir=cache"])

    def test_removed_combine_mode_key_rejected(self, cfg_dir):
        with pytest.raises(ConfigError, match="unknown config key 'attn.combine_mode'"):
            load_run_config(cfg_dir / "run.conf", ["attn.combine_mode=residual_product"])

    def test_removed_init_seed_key_rejected(self, cfg_dir):
        (cfg_dir / "seeded.conf").write_text(TINY + "model.seed = 5\n")
        with pytest.raises(ConfigError, match="unknown config key 'model.seed'"):
            load_run_config(cfg_dir / "seeded.conf")

    def test_digest_independent_of_key_order(self, cfg_dir):
        lines = TINY.strip().splitlines()
        (cfg_dir / "reordered.conf").write_text("\n".join(reversed(lines)) + "\n")
        a = load_run_config(cfg_dir / "run.conf")
        b = load_run_config(cfg_dir / "reordered.conf")
        assert a.digest() == b.digest()

    def test_seed_override_changes_only_seeds(self, cfg_dir):
        a = load_run_config(cfg_dir / "run.conf")
        b = load_run_config(cfg_dir / "run.conf", seeds=[7])
        diff = set(a.canonical_lines()) ^ set(b.canonical_lines())
        assert diff == {"run.seeds = 1,2", "run.seeds = 7"}

    def test_override_flag(self, cfg_dir):
        cfg = load_run_config(cfg_dir / "run.conf",
                              overrides=["attn.reduction_ratio=4"])
        assert cfg.attn.reduction_ratio == 4
        with pytest.raises(ConfigError, match="override"):
            load_run_config(cfg_dir / "run.conf", overrides=["oops"])

    def test_missing_path_rejected(self, cfg_dir):
        (cfg_dir / "missing.conf").write_text(
            TINY.replace("synth.conf", "nope.conf"))
        with pytest.raises(ConfigError, match="missing"):
            load_run_config(cfg_dir / "missing.conf")

    def test_exactly_one_data_mode(self, cfg_dir):
        (cfg_dir / "none.conf").write_text("run.seeds = 1\n")
        with pytest.raises(ConfigError, match="exactly one"):
            load_run_config(cfg_dir / "none.conf")

    @pytest.mark.parametrize("extra, got", [
        # a test file next to a single CSV would be silently ignored
        ({"data.file": "data.csv", "data.schema": "schema.conf",
          "data.test": "test.csv"}, "data.schema, data.test, data.file"),
        # synthetic data has its own schema
        ({"data.synth": "synth.conf", "data.schema": "schema.conf"},
         "data.schema, data.synth"),
        # a pre-split run needs the schema that encodes its CSVs
        ({"data.train": "t.csv", "data.valid": "v.csv", "data.test": "test.csv"},
         "data.train, data.valid, data.test"),
    ], ids=["file-with-test", "synth-with-schema", "presplit-without-schema"])
    def test_mixed_data_sources_rejected(self, cfg_dir, extra, got):
        for name in ("data.csv", "schema.conf", "test.csv", "t.csv", "v.csv"):
            (cfg_dir / name).write_text("")
        lines = [ln for ln in TINY.splitlines() if not ln.startswith("data.")]
        path = cfg_dir / "mixed.conf"
        path.write_text("\n".join([*lines, *(f"{k} = {v}" for k, v in extra.items())]))
        with pytest.raises(ConfigError, match=re.escape(f"(got {got})")) as exc:
            load_run_config(path)
        assert str(exc.value).startswith(f"{path}: set exactly one data source")

    def test_per_seed_digest_differs(self, cfg_dir):
        cfg = load_run_config(cfg_dir / "run.conf")
        assert cfg.digest(1) != cfg.digest(2)
        assert cfg.digest(1) == cfg.digest(1)

    def test_override_method_keeps_other_fields(self, cfg_dir):
        cfg = load_run_config(cfg_dir / "run.conf")
        other = cfg.override({"attn.use_max": "false"})
        a = set(cfg.canonical_lines())
        b = set(other.canonical_lines())
        assert a ^ b == {"attn.use_max = true", "attn.use_max = false"}


class TestSchemaFile:
    def test_fields_in_file_order(self, tmp_path):
        path = tmp_path / "schema.conf"
        path.write_text("schema.label = y\nfield.b = categorical\n"
                        "field.a = numeric\nschema.buckets = 5\n")
        schema = load_schema(path)
        assert schema.field_names == ("b", "a")
        assert schema.fields[1][1] == "numeric"
        assert schema.buckets == 5

    def test_label_required(self, tmp_path):
        path = tmp_path / "schema.conf"
        path.write_text("field.a = categorical\n")
        with pytest.raises(ConfigError, match="schema.label"):
            load_schema(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "schema.conf"
        path.write_text("schema.label = y\nfield.a = fancy\n")
        with pytest.raises(ConfigError, match="fancy"):
            load_schema(path)

    @pytest.mark.parametrize("key,value", [("schema.min_count", "abc"),
                                           ("schema.buckets", "2.5")])
    def test_non_integer_count_named(self, tmp_path, key, value):
        path = tmp_path / "schema.conf"
        path.write_text(f"schema.label = y\nfield.a = categorical\n{key} = {value}\n")
        message = f"{path}: bad value for {key}: invalid literal for int() with base 10: "
        with pytest.raises(ConfigError, match=re.escape(f"{message}{value!r}")):
            load_schema(path)

    @pytest.mark.parametrize("text, message", [
        ("schema.label = y\n", "schema needs at least one feature field"),
        ("schema.label = y\nfield.a = categorical\nschema.min_count = 0\n",
         "schema.min_count must be >= 1"),
        ("schema.label = y\nfield.a = categorical\nschema.buckets = 0\n",
         "schema.buckets must be >= 1"),
    ], ids=["no-field", "min_count", "buckets"])
    def test_schema_values_refused(self, tmp_path, text, message):
        path = tmp_path / "schema.conf"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            load_schema(path)

    @pytest.mark.parametrize("value", [";;", "", "tabs"])
    def test_delimiter_must_be_one_character(self, tmp_path, value):
        path = tmp_path / "schema.conf"
        path.write_text(f"schema.label = y\nschema.delimiter = {value}\n"
                        "field.a = categorical\n")
        message = (f"{path}: bad value for schema.delimiter: expected one character "
                   f"or 'tab', got {value!r}")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_schema(path)

    def test_one_character_delimiter(self, tmp_path):
        path = tmp_path / "schema.conf"
        path.write_text("schema.label = y\nschema.delimiter = ;\nfield.a = categorical\n")
        assert load_schema(path).delimiter == ";"

    def test_tab_delimiter(self, tmp_path):
        path = tmp_path / "schema.conf"
        path.write_text("schema.label = y\nschema.delimiter = tab\n"
                        "field.a = categorical\n")
        assert load_schema(path).delimiter == "\t"


class TestSynthSpecFile:
    def test_load(self, tmp_path):
        path = tmp_path / "synth.conf"
        path.write_text("synth.rows = 500\nsynth.fields = 3\n"
                        "synth.cardinality = 4,5,6\nsynth.informative = 0,2\n"
                        "synth.weight_scale = 1.5\nsynth.seed = 9\n")
        spec = load_synth_spec(path)
        assert spec.n_rows == 500
        assert spec.cardinalities == (4, 5, 6)
        assert spec.informative == (0, 2)
        assert spec.n_fields == 3

    def test_cardinality_broadcast(self, tmp_path):
        path = tmp_path / "synth.conf"
        path.write_text("synth.rows = 100\nsynth.fields = 4\n"
                        "synth.cardinality = 7\nsynth.informative = 0\n")
        assert load_synth_spec(path).cardinalities == (7, 7, 7, 7)

    @pytest.mark.parametrize("spare, refused", [(0, None), (-1, "synth.cardinality"),
                                                (-1 - 8 * 4 * 2, "synth.fields"),
                                                (-1 - 8 * 4 * 2 - 8 * 100 * 2,
                                                 "synth.rows")])
    def test_memory_bound_counts_rows_cells_and_values(self, tmp_path, monkeypatch,
                                                        spare, refused):
        # 100 rows x 2 fields x 4 values: a logit per row, an int64 per
        # cell and a vocabulary entry per value, 8 bytes each
        path = tmp_path / "synth.conf"
        path.write_text(SYNTH)
        memory = 8 * 100 + 8 * 100 * 2 + 8 * 4 * 2 + spare
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1,
                                            "SC_PHYS_PAGES": memory}.__getitem__)
        if refused is None:
            load_synth_spec(path)
            return
        with pytest.raises(ConfigError, match=re.escape(
                f"{refused}: the synthetic data needs at least ")):
            load_synth_spec(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "synth.conf"
        path.write_text(SYNTH + "synth.extra = 1\n")
        with pytest.raises(ConfigError, match="synth.extra"):
            load_synth_spec(path)


class TestSharedErrors:
    """Run configs, schema files and synth specs report bad keys alike."""

    def load(self, tmp_path, kind, text):
        path = tmp_path / f"{kind}.conf"
        path.write_text(text)
        if kind == "run":
            (tmp_path / "synth.conf").write_text(SYNTH)
            return path, lambda: load_run_config(path)
        return path, lambda: (load_schema if kind == "schema" else load_synth_spec)(path)

    @pytest.mark.parametrize("kind, text", [
        ("run", TINY + "run.extra = 1\n"),
        ("schema", "schema.label = y\nfield.a = categorical\nschema.extra = 1\n"),
        ("synth", SYNTH + "synth.extra = 1\n"),
    ], ids=["run", "schema", "synth"])
    def test_unknown_key(self, tmp_path, kind, text):
        path, load = self.load(tmp_path, kind, text)
        extra = f"{kind}.extra"
        with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown config key "
                                                        f"{extra!r}")):
            load()

    @pytest.mark.parametrize("kind, text, key", [
        ("run", TINY.replace("data.synth = synth.conf\n", ""), "set exactly one data source"),
        ("schema", "field.a = categorical\n", "schema.label is required"),
        ("synth", SYNTH.replace("synth.rows = 100\n", ""), "synth.rows is required"),
        ("synth", SYNTH.replace("synth.informative = 0\n", ""),
         "synth.informative is required"),
    ], ids=["run", "schema", "synth-rows", "synth-informative"])
    def test_missing_required_key(self, tmp_path, kind, text, key):
        path, load = self.load(tmp_path, kind, text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {key}")):
            load()

    @pytest.mark.parametrize("kind, text, key, raw", [
        # schema integers and synth.rows are covered in TestSchemaFile and test_cli
        ("run", TINY + "train.patience = two\n", "train.patience", "two"),
        ("run", TINY + "attn.use_max = maybe\n", "attn.use_max", "maybe"),
        ("synth", SYNTH + "synth.weight_scale = big\n", "synth.weight_scale", "big"),
    ], ids=["run", "run-bool", "synth"])
    def test_bad_value_names_key_and_value(self, tmp_path, kind, text, key, raw):
        path, load = self.load(tmp_path, kind, text)
        with pytest.raises(ConfigError) as exc:
            load()
        message = str(exc.value)
        assert message.startswith(f"{path}: bad value for {key}: ")
        assert repr(raw) in message


def documented_defaults(heading):
    """``{key: default}`` from the README table under ``heading``: keys from
    the first column, defaults from the second with backticks stripped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    defaults = {}
    for line in text.split("\n#", 1)[0].splitlines():
        if not line.startswith("| `"):
            continue
        cells = line.split("|")
        for token in re.findall(r"`([^`]+)`", cells[1]):
            section, names = token.split(".", 1)
            defaults.update({f"{section}.{name}": cells[2].strip().replace("`", "")
                             for name in names.split("/")})
    return defaults


def documented_keys(heading):
    return set(documented_defaults(heading))


class TestReadmeTable:
    def test_documented_keys_equal_run_keys(self):
        assert documented_keys("## Configuration") == set(_RUN_KEYS)

    def test_documented_schema_and_synth_keys(self):
        assert documented_keys("### Schema files") == set(_SCHEMA_KEYS)
        assert documented_keys("### Synthetic-data specs") == set(_SYNTH_KEYS)

    @pytest.mark.parametrize("heading, keys", [
        ("## Configuration", _RUN_KEYS),
        ("### Schema files", _SCHEMA_KEYS),
        ("### Synthetic-data specs", _SYNTH_KEYS),
    ], ids=["run", "schema", "synth"])
    def test_documented_defaults_equal_key_table_defaults(self, heading, keys):
        # an unset key reads "–", or for run.out the fallback directory
        unset = {"run.out": "runs/<config-stem>"}
        want = {key: "required" if default is _REQUIRED
                else unset.get(key, "–") if default is None else _canon(default)
                for key, (_, default) in keys.items()}
        assert documented_defaults(heading) == want
