"""The canonical JSON text form shared by every report class."""

from __future__ import annotations

import json
from typing import Any, Dict


class JsonReport:
    """A report whose artifact is canonical JSON.

    Subclasses supply ``to_dict`` (their fields are the artifact schema)
    and, where the artifact is read back, a ``from_dict`` classmethod.
    The text form is one spelling everywhere — two-space indent, sorted
    keys, trailing newline — so reports are byte-identical per seed and
    what ``--json`` prints is what ``--out`` writes.
    """

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))
