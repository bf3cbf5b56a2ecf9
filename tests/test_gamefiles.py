"""Every raise site of the text parsers, each with its message and line."""

import pytest

from capax.errors import ParseError, ValidationError
from capax.gamefiles import parse_credal, parse_game, parse_map, parse_measure, parse_second

# (parser, text, line or None for a ValidationError, message)
CASES = {
    # game files, and the header, size and v-line helpers every format shares
    "game-empty": (parse_game, "# only a comment\n\n", 1, "empty game file"),
    "game-header-keyword": (parse_game, "grund 2\n", 1,
                            "expected 'ground' header, got 'grund'"),
    "game-header-arity": (parse_game, "ground 2 3\n", 1, "'ground' header needs 1 argument(s)"),
    "game-size-token": (parse_game, "ground two\n", 1, "ground size must be an integer, got 'two'"),
    "game-size-range": (parse_game, "# ground set\nground 0\n", 2,
                        "ground set size must be 1..16, got 0"),
    "game-v-shape": (parse_game, "ground 2\nv {0} 1/2\n", 2,
                     "expected 'v {i,...} = p/q', got 'v {0} 1/2'"),
    "game-v-subset": (parse_game, "ground 2\nv {a} = 1/2\n", 2,
                      "bad point index 'a' in subset '{a}'"),
    "game-v-outside": (parse_game, "ground 2\nv {2} = 1/2\n", 2,
                       "subset {2} outside a 2-point ground set"),
    "game-v-duplicate": (parse_game, "ground 2\nv {0} = 1/2\n\nv {0} = 1/4  # again\n", 4,
                         "duplicate subset {0}"),
    "game-v-rational": (parse_game, "ground 2\nv {0} = 1/0\n", 2,
                        "zero denominator in rational '1/0'"),
    "game-invalid-table": (parse_game, "ground 2\nv {0} = 1/2\n", None,
                           "invalid capacity table: no value for subset 0b10 in strict mode"),
    # measure files
    "measure-empty": (parse_measure, "", 1, "empty measure file"),
    "measure-header": (parse_measure, "ground 2\n", 1, "expected 'measure' header, got 'ground'"),
    "measure-m-shape": (parse_measure, "measure 2\nm x = 1\n", 2,
                        "expected 'm i = p/q', got 'm x = 1'"),
    "measure-point-outside": (parse_measure, "measure 2\nm 2 = 1\n", 2,
                              "point 2 outside a 2-point ground set"),
    "measure-duplicate": (parse_measure, "measure 2\nm 0 = 1\nm 0 = 0\n", 3,
                          "duplicate point 0"),
    "measure-rational": (parse_measure, "measure 2\nm 0 = 1/x\n", 2,
                         "malformed rational '1/x'"),
    "measure-missing": (parse_measure, "measure 2\nm 0 = 1\n", None,
                        "no weight for point(s) 1"),
    "measure-invalid": (parse_measure, "measure 2\nm 0 = 1/2\nm 1 = 1/4\n", None,
                        "invalid measure: weights sum to 3/4, not 1"),
    # credal files, vertex form
    "credal-empty": (parse_credal, "\n", 1, "empty credal file"),
    "credal-header": (parse_credal, "credal 2\n", 1,
                      "expected 'credal n vertices k' or 'credal n core-of'"),
    "credal-size": (parse_credal, "credal x vertices 1\n", 1,
                    "ground size must be an integer, got 'x'"),
    "credal-unknown-form": (parse_credal, "credal 2 hull\n", 1, "unknown credal form 'hull'"),
    "vertices-header": (parse_credal, "credal 2 vertices\n", 1,
                        "vertex form header is 'credal n vertices k'"),
    "vertices-none": (parse_credal, "credal 2 vertices 0\n", 1,
                      "a credal set needs at least one vertex"),
    "vertices-m-shape": (parse_credal, "credal 2 vertices 1\nm 0 1 0\n", 2,
                         "expected 'm i = p/q p/q ...', got 'm 0 1 0'"),
    "vertices-index": (parse_credal, "credal 2 vertices 1\nm 1 = 1 0\n", 2,
                       "vertex index 1 out of range 0..0"),
    "vertices-duplicate": (parse_credal, "credal 2 vertices 1\nm 0 = 1 0\nm 0 = 0 1\n", 3,
                           "duplicate vertex 0"),
    "vertices-arity": (parse_credal, "credal 2 vertices 1\nm 0 = 1\n", 2,
                       "vertex needs 2 rationals, got 1"),
    "vertices-rational": (parse_credal, "credal 2 vertices 1\nm 0 = 1 y\n", 2,
                          "malformed rational 'y'"),
    "vertices-missing": (parse_credal, "credal 2 vertices 2\nm 1 = 1 0\n", None,
                         "no line for vertex/vertices 0"),
    "vertices-invalid": (parse_credal, "credal 2 vertices 1\nm 0 = 1 1\n", None,
                         "invalid credal vertices: weights sum to 2, not 1"),
    # credal files, constraint form
    "core-of-header": (parse_credal, "credal 2 core-of extra\n", 1,
                       "constraint form header is 'credal n core-of'"),
    "core-of-v-outside": (parse_credal, "credal 2 core-of\nv {5} = 1\n", 2,
                          "subset {5} outside a 2-point ground set"),
    "core-of-v-empty": (parse_credal, "credal 2 core-of\nv {0} = 1/4\nv {} = 0\n", 3,
                        "the empty set cannot carry a lower bound"),
    # map files
    "map-empty": (parse_map, "", 1, "empty map file"),
    "map-header-arity": (parse_map, "map 2\n", 1, "'map' header needs 2 argument(s)"),
    "map-codomain-size": (parse_map, "map 2 0\n", 1, "ground set size must be 1..16, got 0"),
    "map-f-shape": (parse_map, "map 2 1\nf 0 -> 0\n", 2, "expected 'f i = j', got 'f 0 -> 0'"),
    "map-domain-point": (parse_map, "map 2 1\nf 2 = 0\n", 2, "domain point 2 out of range"),
    "map-codomain-point": (parse_map, "map 2 1\nf 0 = 1\n", 2, "codomain point 1 out of range"),
    "map-duplicate": (parse_map, "map 2 1\nf 0 = 0\nf 0 = 0\n", 3, "duplicate domain point 0"),
    "map-missing": (parse_map, "map 2 1\nf 0 = 0\n", None, "no image for point(s) 1"),
    # second-order files
    "second-empty": (parse_second, "", 1, "empty second-order file"),
    "second-header-arity": (parse_second, "second 2\n", 1,
                            "'second' header needs 2 argument(s)"),
    "second-count": (parse_second, "second 2 0\n", 1, "support size must be a positive integer"),
    "second-count-size": (parse_second, "second 2 17\n", 1, "ground set size must be 1..16, got 17"),
    "second-support-shape": (parse_second, "second 2 1\nsupport\n", 2, "expected 'support i'"),
    "second-support-index": (parse_second, "second 2 1\nsupport 1\n", 2,
                             "support index 1 out of range 0..0"),
    "second-support-duplicate": (parse_second, "second 2 1\nsupport 0\nsupport 0\n", 3,
                                 "duplicate section 'support 0'"),
    "second-game-duplicate": (parse_second, "second 2 1\ngame\ngame\n", 3,
                              "duplicate section 'game'"),
    "second-value-first": (parse_second, "second 2 1\nv {0} = 1\n", 2,
                           "value line before any 'support i' or 'game' section"),
    "second-support-missing": (parse_second, "second 2 2\nsupport 0\ngame\n", None,
                               "no section for support index(es) 1"),
    "second-game-missing": (parse_second, "second 1 1\nsupport 0\n", None, "no 'game' section"),
    "second-invalid": (parse_second,
                       "second 1 2\nsupport 0\nsupport 1\ngame\nv {0} = 1/2\nv {1} = 1/2\n",
                       None, "invalid second-order capacity: "
                             "support capacities must be pairwise distinct"),
}


@pytest.mark.parametrize("case", CASES)
def test_every_raise_site_pins_its_message_and_line(case):
    parser, text, line, message = CASES[case]
    if line is None:
        with pytest.raises(ValidationError) as caught:
            parser(text)
        assert str(caught.value) == message
    else:
        with pytest.raises(ParseError) as caught:
            parser(text)
        assert (caught.value.line, caught.value.reason) == (line, message)
