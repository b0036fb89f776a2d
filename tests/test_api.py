"""The README documents exactly the public surface: the top-level package
exports the Library section's names, and the command line takes the
Command line section's options."""

import pathlib
import re

import gradkick
from gradkick.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_names() -> list[str]:
    """Leading identifier of every code span in the Library section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return sorted(set(re.findall(r"`([A-Za-z_]\w*)[`(]", section)))


def test_all_is_the_readme_library_section():
    assert len(set(gradkick.__all__)) == len(gradkick.__all__)
    assert sorted(gradkick.__all__) == library_names()
    namespace = {}
    exec("from gradkick import *", namespace)
    for name in gradkick.__all__:
        assert namespace[name] is getattr(gradkick, name)


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def parser_options() -> dict[str, set[str]]:
    """Each subcommand's options, help aside."""
    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and a.dest == "command")
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_readme_command_line_section_is_the_parser():
    section = readme_section("Command line")
    documented = {m.group(1): set(re.findall(r"--[a-z][a-z-]*", m.group(2)))
                  for m in re.finditer(r"^gradkick (\w+)([^#\n]*)", section, re.M)}
    assert documented == parser_options()
    # Prose may name no option the parser lacks.
    mentioned = set(re.findall(r"`(--[a-z][a-z-]*)", section))
    assert mentioned <= set().union(*parser_options().values())
