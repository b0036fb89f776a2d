"""The top-level package exports exactly the README's Library section."""

import pathlib
import re

import gradkick

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
