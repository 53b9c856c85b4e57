"""README states the user contract; these tests keep it in step with the code.

README is read as plain text. Its config table lists every leaf key of
`config.DEFAULTS`, in `--print-config` order, with the default as
`json.dumps` prints it. Each subcommand's flag table lists the option
strings of `cli.build_parser()`, `--help` aside. Every `saflex ...` line of
a bash block parses, every config key and flag that the command-line and
config sections name exists, the metrics header is
`trainer.METRICS_COLUMNS`, and CI's test commands appear verbatim.
"""

import argparse
import json
import pathlib
import re
import shlex

from saflex import cli, config, trainer

ROOT = pathlib.Path(__file__).resolve().parents[1]
# `data.csv` names a file, not the key data.csv
FILE_SUFFIXES = ("csv", "json", "bin", "py")


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _section(text: str, heading: str) -> str:
    """The text under `heading`, up to the next heading of its level or above."""
    level = heading.index(" ")
    lines = text.splitlines()
    body, fenced = [], False
    for line in lines[lines.index(heading) + 1:]:
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and re.match(rf"#{{1,{level}}} ", line):
            break
        body.append(line)
    return "\n".join(body)


def _table_rows(section: str) -> list[list[str]]:
    """The cells of each body row of the markdown tables in a section."""
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if set(cells[0]) <= set("- ") or cells[0] in ("key", "flag"):
            continue  # a header or its separator
        rows.append(cells)
    return rows


def _bash_lines(text: str) -> list[str]:
    lines, in_bash = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_bash = line.strip() == "```bash"
        elif in_bash:
            lines.append(line)
    return lines


def _leaves(tree: dict, prefix: str = "") -> list[tuple[str, object]]:
    out = []
    for key, value in tree.items():
        if type(value) is dict:
            out += _leaves(value, f"{prefix}{key}.")
        else:
            out.append((prefix + key, value))
    return out


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def _option_strings(parser: argparse.ArgumentParser) -> list[str]:
    return [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]


def test_the_config_table_lists_every_key_with_its_printed_default():
    rows = _table_rows(_section(_readme(), "## Config keys"))
    table = [(re.fullmatch(r"`([^`]+)`", key).group(1), default) for key, default, *_ in rows]
    leaves = _leaves(config.DEFAULTS)
    assert [key for key, _ in table] == [key for key, _ in leaves]
    for (key, cell), (_, value) in zip(table, leaves):
        assert cell == f"`{json.dumps(value)}`", key


def test_each_subcommand_table_lists_exactly_its_flags():
    readme = _readme()
    headings = re.findall(r"^### `saflex ([a-z-]+)`$", readme, flags=re.M)
    subcommands = _subcommands()
    assert sorted(headings) == sorted(subcommands)
    for name, parser in subcommands.items():
        rows = _table_rows(_section(readme, f"### `saflex {name}`"))
        listed = [flag for row in rows for flag in re.findall(r"`(-[^`]+)`", row[0])]
        assert listed == _option_strings(parser), name


def test_every_saflex_line_of_a_bash_block_parses():
    lines = [ln for ln in _bash_lines(_readme()) if ln.startswith("saflex ")]
    assert len(lines) >= len(_subcommands())
    parser = cli.build_parser()
    bad = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            bad.append(line)
    assert not bad


def test_every_key_and_flag_the_command_line_and_config_sections_name_exists():
    readme = _readme()
    text = _section(readme, "## Command line") + _section(readme, "## Config keys")
    sections = "|".join(config.DEFAULTS)
    named = {name for name in re.findall(rf"`((?:{sections})\.[a-z_]+)[`\[ :]", text)
             if name.rsplit(".", 1)[1] not in FILE_SUFFIXES}
    assert named and named <= {key for key, _ in _leaves(config.DEFAULTS)}
    flags = set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", text))
    options = {s for p in _subcommands().values() for s in _option_strings(p)}
    assert flags and flags <= options


def test_the_metrics_header_is_the_one_train_writes():
    section = _section(_readme(), "## File formats")
    header = re.search(r"\*\*Metrics CSV\*\* header:\s*`([^`]+)`", section).group(1)
    assert header == ",".join(trainer.METRICS_COLUMNS)


def test_readme_runs_the_test_commands_ci_runs():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    commands = [m.group(1).strip() for m in re.finditer(r"^\s*run: (.+)$", ci, flags=re.M)
                if "pytest" in m.group(1) and "pip install" not in m.group(1)]
    assert len(commands) == 2
    bash = _bash_lines(_readme())
    for command in commands:
        assert command in bash, command
