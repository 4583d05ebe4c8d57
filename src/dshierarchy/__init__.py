"""Exact symbolic engine for Drinfeld-Sokolov hierarchies and tau-structures."""

__version__ = "0.1.0"

# the shipped type tables (dshierarchy/data) by slug; here, not in kacmoody,
# so that the CLI's help lists them without loading the Lie algebra layer
_TYPE_FILES = {
    "a1_1": "a1_1.json",
    "a2_1": "a2_1.json",
    "a2_2": "a2_2.json",
}


def supported_types() -> list[str]:
    return sorted(_TYPE_FILES)
