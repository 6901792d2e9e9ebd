"""Byte-for-byte output of `khconc kh` and `to_json` on fixed inputs.

The literals were recorded from the program; any change to the bytes the
CLI or the JSON writer emits for these inputs fails here.
"""

import hashlib

import pytest

from khconc import build_ck, build_complex, build_staircase, dual, parse_braid, to_json
from khconc.cli import main

import support

KNOTS = {
    "3_1": "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]",
    "4_1": "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]",
    "T(2,5)": "BR[2; 1,1,1,1,1]",
}

KH = {
    ('3_1', False): (
        '   q\\t    0    1    2    3\n'
        '     8    .    .    .    1\n'
        '     6    .    .    1    .\n'
        '     2    1    .    .    .\n'
        '\n'
        'entries:\n'
        '  1 -> 2: -G\n'
    ),
    ('3_1', True): (
        '{\n'
        '  "generators": [\n'
        '    {\n'
        '      "id": "0",\n'
        '      "t": 0,\n'
        '      "q": 2\n'
        '    },\n'
        '    {\n'
        '      "id": "1",\n'
        '      "t": 2,\n'
        '      "q": 6\n'
        '    },\n'
        '    {\n'
        '      "id": "2",\n'
        '      "t": 3,\n'
        '      "q": 8\n'
        '    }\n'
        '  ],\n'
        '  "diff": [\n'
        '    {\n'
        '      "from": "1",\n'
        '      "to": "2",\n'
        '      "coeff": "-1",\n'
        '      "gpow": 1\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    ('4_1', False): (
        '   q\\t   -2   -1    0    1    2\n'
        '     4    .    .    .    .    1\n'
        '     2    .    .    .    1    .\n'
        '     0    .    .    1    .    .\n'
        '    -2    .    1    .    .    .\n'
        '    -4    1    .    .    .    .\n'
        '\n'
        'entries:\n'
        '  0 -> 1: G\n'
        '  3 -> 4: G\n'
    ),
    ('4_1', True): (
        '{\n'
        '  "generators": [\n'
        '    {\n'
        '      "id": "0",\n'
        '      "t": -2,\n'
        '      "q": -4\n'
        '    },\n'
        '    {\n'
        '      "id": "1",\n'
        '      "t": -1,\n'
        '      "q": -2\n'
        '    },\n'
        '    {\n'
        '      "id": "2",\n'
        '      "t": 0,\n'
        '      "q": 0\n'
        '    },\n'
        '    {\n'
        '      "id": "3",\n'
        '      "t": 1,\n'
        '      "q": 2\n'
        '    },\n'
        '    {\n'
        '      "id": "4",\n'
        '      "t": 2,\n'
        '      "q": 4\n'
        '    }\n'
        '  ],\n'
        '  "diff": [\n'
        '    {\n'
        '      "from": "0",\n'
        '      "to": "1",\n'
        '      "coeff": "1",\n'
        '      "gpow": 1\n'
        '    },\n'
        '    {\n'
        '      "from": "3",\n'
        '      "to": "4",\n'
        '      "coeff": "1",\n'
        '      "gpow": 1\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    ('T(2,5)', False): (
        '   q\\t    0    1    2    3    4    5\n'
        '    14    .    .    .    .    .    1\n'
        '    12    .    .    .    .    1    .\n'
        '    10    .    .    .    1    .    .\n'
        '     8    .    .    1    .    .    .\n'
        '     4    1    .    .    .    .    .\n'
        '\n'
        'entries:\n'
        '  1 -> 2: -G\n'
        '  3 -> 4: -G\n'
    ),
    ('T(2,5)', True): (
        '{\n'
        '  "generators": [\n'
        '    {\n'
        '      "id": "0",\n'
        '      "t": 0,\n'
        '      "q": 4\n'
        '    },\n'
        '    {\n'
        '      "id": "1",\n'
        '      "t": 2,\n'
        '      "q": 8\n'
        '    },\n'
        '    {\n'
        '      "id": "2",\n'
        '      "t": 3,\n'
        '      "q": 10\n'
        '    },\n'
        '    {\n'
        '      "id": "3",\n'
        '      "t": 4,\n'
        '      "q": 12\n'
        '    },\n'
        '    {\n'
        '      "id": "4",\n'
        '      "t": 5,\n'
        '      "q": 14\n'
        '    }\n'
        '  ],\n'
        '  "diff": [\n'
        '    {\n'
        '      "from": "1",\n'
        '      "to": "2",\n'
        '      "coeff": "-1",\n'
        '      "gpow": 1\n'
        '    },\n'
        '    {\n'
        '      "from": "3",\n'
        '      "to": "4",\n'
        '      "coeff": "-1",\n'
        '      "gpow": 1\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
}

TO_JSON = {
    "C1": (
        '{"generators": [{"id": "e", "t": -1, "q": -2}, {"id": "v", "t": 0, "q": -2}, {"id": "u1", '
        '"t": 0, "q": 0}, {"id": "u2", "t": 0, "q": 0}, {"id": "w", "t": 1, "q": 0}], '
        '"diff": [{"from": "e", "to": "u2", "coeff": "-1", "gpow": 1}, {"from": "e", "to": "v", '
        '"coeff": "4", "gpow": 0}, {"from": "u1", "to": "w", "coeff": "2", "gpow": 0}, '
        '{"from": "u2", "to": "w", "coeff": "4", "gpow": 0}, {"from": "v", "to": "w", '
        '"coeff": "1", "gpow": 1}]}'
    ),
    "S24": (
        '{"generators": [{"id": "x1", "t": 0, "q": 4}, {"id": "x2", "t": 0, "q": 2}, {"id": "x3", '
        '"t": 0, "q": 0}, {"id": "y1", "t": 1, "q": 4}, {"id": "y2", "t": 1, "q": 2}], '
        '"diff": [{"from": "x1", "to": "y1", "coeff": "2", "gpow": 0}, {"from": "x2", "to": "y1", '
        '"coeff": "1", "gpow": 1}, {"from": "x2", "to": "y2", "coeff": "4", "gpow": 0}, '
        '{"from": "x3", "to": "y2", "coeff": "1", "gpow": 1}]}'
    ),
    "dual S24": (
        '{"generators": [{"id": "x1*", "t": 0, "q": -4}, {"id": "x2*", "t": 0, "q": -2}, '
        '{"id": "x3*", "t": 0, "q": 0}, {"id": "y1*", "t": -1, "q": -4}, {"id": "y2*", "t": -1, '
        '"q": -2}], "diff": [{"from": "y1*", "to": "x1*", "coeff": "2", "gpow": 0}, '
        '{"from": "y1*", "to": "x2*", "coeff": "1", "gpow": 1}, {"from": "y2*", "to": "x2*", '
        '"coeff": "4", "gpow": 0}, {"from": "y2*", "to": "x3*", "coeff": "1", "gpow": 1}]}'
    ),
}


@pytest.mark.parametrize("name, as_json", sorted(KH), ids=str)
def test_kh_bytes(capsys, name, as_json):
    argv = ["kh", KNOTS[name]] + (["--json"] if as_json else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == KH[(name, as_json)]


COMPLEXES = {
    "C1": lambda: build_ck(1),
    "S24": lambda: build_staircase((2, 4)),
    "dual S24": lambda: dual(build_staircase((2, 4))),
}


@pytest.mark.parametrize("name", sorted(TO_JSON))
def test_to_json_bytes(name):
    assert to_json(COMPLEXES[name]()) == TO_JSON[name]


# SHA-256 of to_json of the assembled complex of each braid closure's clasped
# double, above the reach of the KH literals: 3_1's has 14 crossings, T(2,5)'s 22
DOUBLE_SHA256 = {
    "BR[2; 1,1,1]": "8db2132f2132996ca3bc8160e2d13ce51204475ececa1c4a74332250f2fb0ea3",
    "BR[2; 1,1,1,1,1]": "85163a76cfd71a1a2541179aa35543be6f27e0c9d969b1fd689973983568995b",
}


@pytest.mark.parametrize("word", sorted(DOUBLE_SHA256))
def test_double_to_json_digest(word):
    text = to_json(build_complex(support.double_pd(parse_braid(word), clasp="A"), cap=100))
    assert hashlib.sha256(text.encode()).hexdigest() == DOUBLE_SHA256[word]
