"""Tokenizer tests."""

import pytest

from repro.errors import LexError
from repro.process.lexer import KEYWORDS, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


def test_keywords_recognized():
    for kw in ("BEGIN", "END", "FORK", "JOIN", "ITERATIVE", "CHOICE", "MERGE", "COND"):
        token = tokenize(kw)[0]
        assert token.kind == TokenKind.KEYWORD
        assert token.text == kw


def test_names_vs_keywords():
    tokens = tokenize("BEGIN POD begin")
    assert tokens[0].kind == TokenKind.KEYWORD
    assert tokens[1].kind == TokenKind.NAME
    assert tokens[2].kind == TokenKind.NAME  # lowercase 'begin' is a name


def test_numbers():
    tokens = tokenize("42 3.14")
    assert [t.kind for t in tokens[:-1]] == [TokenKind.NUMBER] * 2
    assert texts("42 3.14") == ["42", "3.14"]


def test_strings_strip_quotes():
    token = tokenize('"2D Image"')[0]
    assert token.kind == TokenKind.STRING
    assert token.text == "2D Image"


def test_punctuation():
    assert kinds("{ } ; , .")[:-1] == [
        TokenKind.LBRACE,
        TokenKind.RBRACE,
        TokenKind.SEP,
        TokenKind.SEP,
        TokenKind.DOT,
    ]


@pytest.mark.parametrize("rel", ["<", ">", "=", "!=", "<=", ">="])
def test_relations(rel):
    token = tokenize(rel)[0]
    assert token.kind == TokenKind.REL
    assert token.text == rel


def test_comments_skipped():
    tokens = tokenize("A # a comment\nB")
    assert texts("A # a comment\nB") == ["A", "B"]
    assert tokens[1].line == 2


def test_line_and_column_tracking():
    tokens = tokenize("A;\n  B")
    a, sep, b, eof = tokens
    assert (a.line, a.column) == (1, 1)
    assert (b.line, b.column) == (2, 3)


def test_eof_always_last():
    assert tokenize("")[-1].kind == TokenKind.EOF
    assert tokenize("A")[-1].kind == TokenKind.EOF


def test_unknown_character_raises_with_location():
    with pytest.raises(LexError) as err:
        tokenize("A;\n  @")
    assert err.value.line == 2
    assert err.value.column == 3


def test_hyphenated_names():
    assert tokenize("PD-3DSD")[0].text == "PD-3DSD"


def test_boolean_connectives_are_keywords():
    for word in ("and", "or", "not", "true"):
        assert word in KEYWORDS
        assert tokenize(word)[0].kind == TokenKind.KEYWORD
