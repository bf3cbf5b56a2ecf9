"""Line-oriented text formats for games, measures, credal sets, point maps
and second-order capacities.

All rationals are written "p/q" (or "p" for integers), subsets as
brace-enclosed comma lists of 0-based indices like "{0,2}".  `#` starts a
comment, blank lines are ignored, line order is irrelevant inside a section,
and a duplicated subset or point is a parse error.  Formats:

game            ground 3               measure 3
                v {0} = 1/4            m 0 = 1/2
                v {0,1} = 1/2 ...      m 1 = 1/2 ...

credal          credal 3 vertices 2    credal 3 core-of
(two forms)     m 0 = 1/2 1/2 0        v {0} = 1/4
                m 1 = 0 1/2 1/2        ...game body...

map             map 3 2                second 3 2
                f 0 = 0                support 0
                f 1 = 1                ...game body on 3 points...
                f 2 = 1                support 1
                                       ...
                                       game
                                       ...game body on 2 points...

Syntax problems raise ParseError with the 1-based line number; inputs that
parse but violate a semantic invariant (non-monotone table, weights not
summing to 1, ...) raise ValidationError wrapping the underlying reason.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .capacity import Capacity, Measure, new_capacity
from .credal import CONSTRAINTS, VERTICES, CredalSet
from .errors import CapaxError, ParseError, ValidationError
from .ground import GroundSet, PointMap, format_rat, format_subset, parse_rat, parse_subset
from .monad import SecondOrderCapacity

_V_LINE = re.compile(r"^v\s+(\{[^}]*\})\s*=\s*(\S+)$")
_M_LINE = re.compile(r"^m\s+(\d+)\s*=\s*(.+)$")
_F_LINE = re.compile(r"^f\s+(\d+)\s*=\s*(\d+)$")


def _content_lines(text: str):
    """(line_number, stripped_content) pairs, comments and blanks removed."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield idx, line


def _parse_header(lineno: int, line: str, keyword: str, argc: int) -> list[str]:
    parts = line.split()
    if parts[0] != keyword:
        raise ParseError(lineno, f"expected {keyword!r} header, got {parts[0]!r}")
    if len(parts) != argc + 1:
        raise ParseError(lineno, f"{keyword!r} header needs {argc} argument(s)")
    return parts[1:]


def _parse_ground_size(lineno: int, token: str) -> GroundSet:
    if not token.isdigit():
        raise ParseError(lineno, f"ground size must be an integer, got {token!r}")
    try:
        return GroundSet(int(token))
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _parse_v_line(lineno: int, line: str, ground: GroundSet, seen: dict):
    m = _V_LINE.match(line)
    if not m:
        raise ParseError(lineno, f"expected 'v {{i,...}} = p/q', got {line!r}")
    try:
        mask = parse_subset(m.group(1))
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    if not ground.contains_subset(mask):
        raise ParseError(lineno, f"subset {m.group(1)} outside a {ground.n}-point ground set")
    if mask in seen:
        raise ParseError(lineno, f"duplicate subset {m.group(1)}")
    try:
        seen[mask] = parse_rat(m.group(2))
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _build_capacity(ground: GroundSet, assignments, strict: bool) -> Capacity:
    try:
        return new_capacity(ground, assignments, strict=strict)
    except CapaxError as exc:
        raise ValidationError(f"invalid capacity table: {exc}") from exc


# --- game files -----------------------------------------------------------------


def parse_game(text: str, strict: bool = True) -> Capacity:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty game file")
    lineno, header = lines[0]
    (size_token,) = _parse_header(lineno, header, "ground", 1)
    ground = _parse_ground_size(lineno, size_token)
    assignments: dict[int, Fraction] = {}
    for lineno, line in lines[1:]:
        _parse_v_line(lineno, line, ground, assignments)
    return _build_capacity(ground, assignments, strict)


def emit_game(nu: Capacity) -> str:
    out = [f"ground {nu.ground.n}"]
    for mask in nu.ground.proper_nonempty_subsets():
        out.append(f"v {format_subset(mask)} = {format_rat(nu[mask])}")
    return "\n".join(out) + "\n"


# --- measure files ----------------------------------------------------------------


def parse_measure(text: str) -> Measure:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty measure file")
    lineno, header = lines[0]
    (size_token,) = _parse_header(lineno, header, "measure", 1)
    ground = _parse_ground_size(lineno, size_token)
    weights: dict[int, Fraction] = {}
    for lineno, line in lines[1:]:
        m = _M_LINE.match(line)
        if not m:
            raise ParseError(lineno, f"expected 'm i = p/q', got {line!r}")
        i = int(m.group(1))
        if i >= ground.n:
            raise ParseError(lineno, f"point {i} outside a {ground.n}-point ground set")
        if i in weights:
            raise ParseError(lineno, f"duplicate point {i}")
        try:
            weights[i] = parse_rat(m.group(2).strip())
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    missing = [str(i) for i in ground.points() if i not in weights]
    if missing:
        raise ValidationError(f"no weight for point(s) {', '.join(missing)}")
    try:
        return Measure(ground, [weights[i] for i in ground.points()])
    except CapaxError as exc:
        raise ValidationError(f"invalid measure: {exc}") from exc


def emit_measure(mu: Measure) -> str:
    out = [f"measure {mu.ground.n}"]
    for i, w in enumerate(mu.weights):
        out.append(f"m {i} = {format_rat(w)}")
    return "\n".join(out) + "\n"


# --- credal files -----------------------------------------------------------------


def parse_credal(text: str) -> CredalSet:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty credal file")
    lineno, header = lines[0]
    parts = header.split()
    if parts[0] != "credal" or len(parts) < 3:
        raise ParseError(lineno, "expected 'credal n vertices k' or 'credal n core-of'")
    ground = _parse_ground_size(lineno, parts[1])
    if parts[2] == "vertices":
        if len(parts) != 4 or not parts[3].isdigit():
            raise ParseError(lineno, "vertex form header is 'credal n vertices k'")
        count = int(parts[3])
        if count < 1:
            raise ParseError(lineno, "a credal set needs at least one vertex")
        rows: dict[int, list[Fraction]] = {}
        for lineno, line in lines[1:]:
            m = _M_LINE.match(line)
            if not m:
                raise ParseError(lineno, f"expected 'm i = p/q p/q ...', got {line!r}")
            i = int(m.group(1))
            if i >= count:
                raise ParseError(lineno, f"vertex index {i} out of range 0..{count - 1}")
            if i in rows:
                raise ParseError(lineno, f"duplicate vertex {i}")
            tokens = m.group(2).split()
            if len(tokens) != ground.n:
                raise ParseError(lineno, f"vertex needs {ground.n} rationals, got {len(tokens)}")
            try:
                rows[i] = [parse_rat(t) for t in tokens]
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        missing = [str(i) for i in range(count) if i not in rows]
        if missing:
            raise ValidationError(f"no line for vertex/vertices {', '.join(missing)}")
        try:
            return CredalSet.from_vertices(
                [Measure(ground, rows[i]) for i in range(count)]
            )
        except CapaxError as exc:
            raise ValidationError(f"invalid credal vertices: {exc}") from exc
    if parts[2] == "core-of":
        if len(parts) != 3:
            raise ParseError(lineno, "constraint form header is 'credal n core-of'")
        bounds: dict[int, Fraction] = {}
        for lineno, line in lines[1:]:
            _parse_v_line(lineno, line, ground, bounds)
            if 0 in bounds:
                raise ParseError(lineno, "the empty set cannot carry a lower bound")
        return CredalSet.from_constraints(ground, bounds)  # may raise InfeasibleCredal
    raise ParseError(lineno, f"unknown credal form {parts[2]!r}")


def emit_credal(alpha: CredalSet) -> str:
    if alpha.kind == VERTICES:
        out = [f"credal {alpha.ground.n} vertices {len(alpha.vertices)}"]
        for i, mu in enumerate(alpha.vertices):
            out.append(f"m {i} = " + " ".join(format_rat(w) for w in mu.weights))
        return "\n".join(out) + "\n"
    if alpha.kind == CONSTRAINTS:
        out = [f"credal {alpha.ground.n} core-of"]
        for mask, bound in sorted(zip(alpha.system.masks, alpha.system.bounds)):
            out.append(f"v {format_subset(mask)} = {format_rat(bound)}")
        return "\n".join(out) + "\n"
    raise ValueError("pushforward-form credal sets have no file representation")


# --- point-map files ----------------------------------------------------------------


def parse_map(text: str) -> PointMap:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty map file")
    lineno, header = lines[0]
    dom_token, cod_token = _parse_header(lineno, header, "map", 2)
    domain = _parse_ground_size(lineno, dom_token)
    codomain = _parse_ground_size(lineno, cod_token)
    image: dict[int, int] = {}
    for lineno, line in lines[1:]:
        m = _F_LINE.match(line)
        if not m:
            raise ParseError(lineno, f"expected 'f i = j', got {line!r}")
        x, y = int(m.group(1)), int(m.group(2))
        if x >= domain.n:
            raise ParseError(lineno, f"domain point {x} out of range")
        if y >= codomain.n:
            raise ParseError(lineno, f"codomain point {y} out of range")
        if x in image:
            raise ParseError(lineno, f"duplicate domain point {x}")
        image[x] = y
    missing = [str(x) for x in domain.points() if x not in image]
    if missing:
        raise ValidationError(f"no image for point(s) {', '.join(missing)}")
    return PointMap(domain, codomain, tuple(image[x] for x in domain.points()))


def emit_map(f: PointMap) -> str:
    out = [f"map {f.domain.n} {f.codomain.n}"]
    for x, y in enumerate(f.image):
        out.append(f"f {x} = {y}")
    return "\n".join(out) + "\n"


# --- second-order files ----------------------------------------------------------------


def parse_second(text: str, strict: bool = True) -> SecondOrderCapacity:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty second-order file")
    lineno, header = lines[0]
    size_token, count_token = _parse_header(lineno, header, "second", 2)
    ground = _parse_ground_size(lineno, size_token)
    if not count_token.isdigit() or int(count_token) < 1:
        raise ParseError(lineno, "support size must be a positive integer")
    game_ground = _parse_ground_size(lineno, count_token)  # the game's points
    count = game_ground.n
    sections: dict[object, dict] = {}
    current: dict | None = None
    current_ground = ground
    grounds: dict[object, GroundSet] = {}
    for lineno, line in lines[1:]:
        if line.startswith("support"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(lineno, "expected 'support i'")
            i = int(parts[1])
            if i >= count:
                raise ParseError(lineno, f"support index {i} out of range 0..{count - 1}")
            if i in sections:
                raise ParseError(lineno, f"duplicate section 'support {i}'")
            current = sections.setdefault(i, {})
            current_ground = grounds.setdefault(i, ground)
        elif line == "game":
            if "game" in sections:
                raise ParseError(lineno, "duplicate section 'game'")
            current = sections.setdefault("game", {})
            current_ground = grounds.setdefault("game", game_ground)
        elif current is None:
            raise ParseError(lineno, "value line before any 'support i' or 'game' section")
        else:
            _parse_v_line(lineno, line, current_ground, current)
    missing = [str(i) for i in range(count) if i not in sections]
    if missing:
        raise ValidationError(f"no section for support index(es) {', '.join(missing)}")
    if "game" not in sections:
        raise ValidationError("no 'game' section")
    support = tuple(_build_capacity(ground, sections[i], strict) for i in range(count))
    game = _build_capacity(game_ground, sections["game"], strict)
    try:
        return SecondOrderCapacity(ground, support, game)
    except (CapaxError, ValueError) as exc:
        raise ValidationError(f"invalid second-order capacity: {exc}") from exc

