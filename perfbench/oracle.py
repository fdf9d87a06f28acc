"""Content oracle for the conference manager's pages.

The oracle is a plain-Python model of the seeded conference and of the
policies in ``repro.apps.conf.models``, written down again here from their
specification rather than imported: it never asks the program what a
viewer may see.  From the program it takes only the record identifiers
(jids) that ``seed_conference`` assigned, so requests can name records.

Each page is reduced to the same comparable shape on both sides: the
``<h1>`` text, the ``<p>`` texts and the sorted ``<li>`` texts, all with
whitespace collapsed.  A response is correct exactly when its shape equals
the expected one, so a leaked email, a revealed author or a shown review
body all fail the check.

Seed specification (``seed_conference(form, papers=n)`` with its defaults:
four PC members, one review per paper, as many authors as papers):

* chair: ``chair`` / ``CMU`` / ``chair@conf.org``;
* PC member *i*: ``pc{i}`` / ``University {i}`` / ``pc{i}@conf.org``;
* author *i*: ``author{i}`` / ``Institute {i % 17}`` / ``author{i}@conf.org``;
* paper *i*: ``Paper {i}`` by author *i*, conflicted with PC member
  ``(i + 1) % 4``, reviewed by PC member ``i % 4`` with contents
  ``Review 0 of paper {i}`` and score ``i % 5 + 1``.

Policies, in the ``submission`` phase the benchmark runs in:

* an email is shown to its owner and to the chair, else ``[hidden email]``;
* a paper's author is hidden from a conflicted PC member; otherwise it is
  shown to the author and to the committee (chair and PC), else hidden;
* a review's reviewer, contents and score are shown to the committee only;
* the accepted bit reads ``False`` for everyone (nothing is decided yet).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

PC_MEMBERS = 4

_H1 = re.compile(r"<h1>(.*?)</h1>", re.S)
_P = re.compile(r"<p>(.*?)</p>", re.S)
_LI = re.compile(r"<li>(.*?)</li>", re.S)
_SPACE = re.compile(r"\s+")

#: (h1, p texts, sorted li texts)
Shape = Tuple[str, Tuple[str, ...], Tuple[str, ...]]


def _clean(text: str) -> str:
    return _SPACE.sub(" ", text).strip()


def page_shape(body: str) -> Shape:
    """The comparable shape of a rendered page."""
    heading = _H1.search(body)
    return (
        _clean(heading.group(1)) if heading else "",
        tuple(_clean(text) for text in _P.findall(body)),
        tuple(sorted(_clean(text) for text in _LI.findall(body))),
    )


@dataclass
class User:
    jid: int
    name: str
    affiliation: str
    email: str
    level: str  # normal | pc | chair


@dataclass
class Paper:
    jid: int
    title: str
    author: int
    conflicted_pc: Optional[int]
    #: (reviewer jid, contents, score)
    reviews: List[Tuple[int, str, int]] = field(default_factory=list)


class ConferenceModel:
    """The seeded conference plus every write the benchmark made since."""

    def __init__(self) -> None:
        self.users: Dict[int, User] = {}
        self.papers: Dict[int, Paper] = {}
        #: jids of the seeded papers, in seed order (the read targets)
        self.seeded_papers: List[int] = []
        self.authors: List[int] = []
        self.pc: List[int] = []
        self.chair = 0
        #: bumped by every write; keys the memo of expected list pages
        self.version = 0
        self._memo: Dict[Tuple[str, int], Tuple[int, Shape]] = {}

    @classmethod
    def from_seed(cls, created: Dict[str, list], papers: int) -> "ConferenceModel":
        """The model of ``seed_conference(form, papers=papers)``.

        Only the jids are read from ``created``; every field value comes
        from the seed specification in this module's docstring.
        """
        if len(created["papers"]) != papers or len(created["pc"]) != PC_MEMBERS:
            raise ValueError("seeded conference does not match the specification")
        model = cls()
        model.chair = created["chair"][0].jid
        model.users[model.chair] = User(model.chair, "chair", "CMU", "chair@conf.org", "chair")
        for index, member in enumerate(created["pc"]):
            model.pc.append(member.jid)
            model.users[member.jid] = User(
                member.jid, f"pc{index}", f"University {index}", f"pc{index}@conf.org", "pc"
            )
        for index, author in enumerate(created["users"]):
            model.authors.append(author.jid)
            model.users[author.jid] = User(
                author.jid, f"author{index}", f"Institute {index % 17}",
                f"author{index}@conf.org", "normal",
            )
        for index, paper in enumerate(created["papers"]):
            entry = Paper(
                paper.jid,
                f"Paper {index}",
                model.authors[index % len(model.authors)],
                model.pc[(index + 1) % PC_MEMBERS],
            )
            entry.reviews.append(
                (model.pc[index % PC_MEMBERS], f"Review 0 of paper {index}", index % 5 + 1)
            )
            model.papers[paper.jid] = entry
            model.seeded_papers.append(paper.jid)
        return model

    # -- writes -------------------------------------------------------------------

    def add_paper(self, title: str, author: int) -> None:
        """Record a ``POST /submit``; the paper's jid is never requested."""
        key = -1 - len(self.papers)  # a placeholder key distinct from real jids
        self.papers[key] = Paper(key, title, author, None)
        self.version += 1

    def add_review(self, paper: int, reviewer: int, contents: str, score: int) -> None:
        """Record a ``POST /review``."""
        self.papers[paper].reviews.append((reviewer, contents, score))
        self.version += 1

    # -- policies -----------------------------------------------------------------

    def _committee(self, viewer: int) -> bool:
        return self.users[viewer].level in ("pc", "chair")

    def _sees_email(self, viewer: int, owner: int) -> bool:
        return viewer == owner or self.users[viewer].level == "chair"

    def _sees_author(self, viewer: int, paper: Paper) -> bool:
        if paper.conflicted_pc == viewer:
            return False
        return paper.author == viewer or self._committee(viewer)

    # -- pages --------------------------------------------------------------------

    def _author_text(self, viewer: int, paper: Paper) -> str:
        if self._sees_author(viewer, paper):
            return self.users[paper.author].name
        return "[anonymous]"

    def _papers(self, viewer: int) -> Shape:
        items = [
            f"{paper.title} — author: {self._author_text(viewer, paper)}"
            for paper in self.papers.values()
        ]
        return ("Submitted papers", (), tuple(sorted(items)))

    def _users(self, viewer: int) -> Shape:
        items = [
            f"{user.name} ({user.affiliation}) — "
            f"{user.email if self._sees_email(viewer, user.jid) else '[hidden email]'}"
            for user in self.users.values()
        ]
        return ("Registered users", (), tuple(sorted(items)))

    def _paper(self, viewer: int, jid: int) -> Shape:
        paper = self.papers[jid]
        committee = self._committee(viewer)
        items = []
        for reviewer, contents, score in paper.reviews:
            if committee:
                items.append(f"score {score}: {contents} (by {self.users[reviewer].name})")
            else:
                items.append("score 0: [review not yet available] (by [anonymous reviewer])")
        paragraphs = (f"Author: {self._author_text(viewer, paper)}", "Accepted: False")
        return (paper.title, paragraphs, tuple(sorted(items)))

    def _user(self, viewer: int, jid: int) -> Shape:
        user = self.users[jid]
        email = user.email if self._sees_email(viewer, jid) else "[hidden email]"
        titles = [
            paper.title
            for paper in self.papers.values()
            if paper.author == jid and self._sees_author(viewer, paper)
        ]
        paragraphs = (f"Affiliation: {user.affiliation}", f"Email: {email}")
        return (user.name, paragraphs, tuple(sorted(titles)))

    def expected(self, route: str, viewer: int, jid: Optional[int] = None) -> Shape:
        """The page ``route`` (papers / users / paper / user) shows ``viewer``."""
        if route == "paper":
            return self._paper(viewer, jid)
        if route == "user":
            return self._user(viewer, jid)
        key = (route, viewer)
        memo = self._memo.get(key)
        if memo is None or memo[0] != self.version:
            shape = self._papers(viewer) if route == "papers" else self._users(viewer)
            memo = (self.version, shape)
            self._memo[key] = memo
        return memo[1]

    def check(self, route: str, viewer: int, jid: Optional[int], body: str) -> bool:
        """Whether ``body`` is exactly the page ``viewer`` may see."""
        return page_shape(body) == self.expected(route, viewer, jid)
