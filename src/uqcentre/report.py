"""Uniform pass/fail reports for the verification operations."""

from __future__ import annotations

from collections import namedtuple


CheckItem = namedtuple("CheckItem", "name passed detail", defaults=("",))


class Report:
    """A titled list of CheckItems; ``ok`` when every item passed."""

    def __init__(self, title: str = "", items: list[CheckItem] | None = None):
        self.title = title
        self.items = [] if items is None else items

    def __repr__(self) -> str:
        return f"Report(title={self.title!r}, items={self.items!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return (self.title, self.items) == (other.title, other.items)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.items.append(CheckItem(name, bool(passed), detail))

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        out = []
        for item in self.items:
            status = "ok" if item.passed else "FAIL"
            line = f"[{status}] {item.name}"
            if item.detail:
                line += f": {item.detail}"
            out.append(line)
        return out

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": i.name, "passed": i.passed, "detail": i.detail}
                for i in self.items
            ],
        }
