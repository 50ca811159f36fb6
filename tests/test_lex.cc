/**
 * @file
 * The lexer every outside text goes through (support/lex.h): comment
 * stripping, whitespace tokens checked against operator>>, separator
 * fields with empty ones kept, and the number, range and tuple rules.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/lex.h"
#include "support/rng.h"

namespace uov {
namespace {

std::vector<std::string>
tokensOf(std::string_view text)
{
    std::vector<std::string> out;
    Tokens toks(text);
    for (std::string_view tok; toks.next(tok);)
        out.emplace_back(tok);
    return out;
}

std::vector<std::string>
fieldsOf(std::string_view list, char sep)
{
    std::vector<std::string> out;
    Fields fields(list, sep);
    for (std::string_view field; fields.next(field);)
        out.emplace_back(field);
    return out;
}

using Strings = std::vector<std::string>;

TEST(Lex, StripCommentCutsAtTheFirstHash)
{
    EXPECT_EQ(stripComment("query shortest # deps [1]"),
              "query shortest ");
    EXPECT_EQ(stripComment("a#b#c"), "a");
    EXPECT_EQ(stripComment("# all comment"), "");
    EXPECT_EQ(stripComment("no comment"), "no comment");
    EXPECT_EQ(stripComment(""), "");
}

TEST(Lex, TokensSplitOnTheSixCLocaleSpaces)
{
    EXPECT_EQ(tokensOf(" a\tb\nc\vd\fe\rf "),
              (Strings{"a", "b", "c", "d", "e", "f"}));
    EXPECT_EQ(tokensOf(""), Strings{});
    EXPECT_EQ(tokensOf("\v\f \t\r\n"), Strings{});
    // NUL, DEL and bytes past ASCII are token bytes, as for operator>>.
    EXPECT_EQ(tokensOf(std::string_view("a\0b c", 5)),
              (Strings{std::string("a\0b", 3), "c"}));
    EXPECT_EQ(tokensOf("x\x7f\xa0y z"), (Strings{"x\x7f\xa0y", "z"}));
    for (int c = 0; c < 256; ++c) {
        bool space = c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
                     c == '\f' || c == '\r';
        std::string text = {'a', static_cast<char>(c), 'b'};
        EXPECT_EQ(tokensOf(text).size(), space ? 2u : 1u) << c;
    }
}

TEST(Lex, TokensMatchOperatorShiftOnRandomBytes)
{
    // operator>> over an istringstream is the independent reference.
    const char alphabet[] = {' ', '\t', '\n', '\v', '\f', '\r', 'a',
                             '[', ',', '.', '\0', '\x80', '\xff', '#'};
    SplitMix64 rng(20);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text(rng.next() % 24, ' ');
        for (char &c : text)
            c = alphabet[rng.next() % sizeof(alphabet)];
        Strings want;
        std::istringstream in(text);
        for (std::string tok; in >> tok;)
            want.push_back(tok);
        ASSERT_EQ(tokensOf(text), want) << "iteration " << iter;
    }
}

TEST(Lex, TokensLeaveTheLastTokenInPlaceAtTheEnd)
{
    Tokens toks("  query  ");
    std::string_view tok;
    ASSERT_TRUE(toks.next(tok));
    EXPECT_EQ(tok, "query");
    EXPECT_FALSE(toks.next(tok));
    EXPECT_EQ(tok, "query");
    EXPECT_FALSE(toks.next(tok));
}

TEST(Lex, FieldsKeepEmptyFields)
{
    EXPECT_EQ(fieldsOf("a,,b", ','), (Strings{"a", "", "b"}));
    EXPECT_EQ(fieldsOf("", ','), Strings{""});
    EXPECT_EQ(fieldsOf("a:", ':'), (Strings{"a", ""}));
    EXPECT_EQ(fieldsOf(":a", ':'), (Strings{"", "a"}));
    EXPECT_EQ(fieldsOf("/bin::/usr/bin", ':'),
              (Strings{"/bin", "", "/usr/bin"}));
    EXPECT_EQ(fieldsOf("a b,c", ','), (Strings{"a b", "c"}));
}

TEST(Lex, WholeNumbersReadOnlyTheirView)
{
    int64_t v = 7;
    std::string_view digits = "1234";
    EXPECT_TRUE(parseWholeNumber(digits.substr(0, 2), v));
    EXPECT_EQ(v, 12);
    for (std::string_view bad :
         {"", "+1", " 1", "1 ", "1x", "0x10", "-"}) {
        EXPECT_FALSE(parseWholeNumber(bad, v)) << bad;
        EXPECT_EQ(v, 12) << bad;
    }
    EXPECT_TRUE(parseWholeNumber("-9223372036854775808", v));
    EXPECT_EQ(v, INT64_MIN);
    EXPECT_FALSE(parseWholeNumber("9223372036854775808", v));
}

TEST(Lex, RangeSplitsAtTheFirstDots)
{
    int64_t lo = 0, hi = 0;
    EXPECT_TRUE(parseRange("-3..17", lo, hi));
    EXPECT_EQ(lo, -3);
    EXPECT_EQ(hi, 17);
    // The request grammar rejects lo > hi itself; the rule reads it.
    EXPECT_TRUE(parseRange("5..3", lo, hi));
    EXPECT_EQ(lo, 5);
    EXPECT_EQ(hi, 3);
    for (std::string_view bad :
         {"", "..", "1..", "..1", "0-3", "1...3", "1..2..3", "+0..3",
          "0..+3", "1 ..3", "a..b"})
        EXPECT_FALSE(parseRange(bad, lo, hi)) << bad;
}

TEST(Lex, TupleNamesItsFirstBadField)
{
    std::vector<int64_t> out;
    std::string_view bad;
    EXPECT_TRUE(parseTuple("[1,-2,3]", out, &bad));
    EXPECT_EQ(out, (std::vector<int64_t>{1, -2, 3}));
    EXPECT_TRUE(parseTuple("[-9223372036854775808]", out));
    EXPECT_EQ(out, std::vector<int64_t>{INT64_MIN});

    struct Case
    {
        std::string_view tok, bad;
    };
    for (const Case &c : {Case{"[1,x,y]", "x"}, Case{"[1,]", ""},
                          Case{"[,1]", ""}, Case{"[]", ""},
                          Case{"[+1,0]", "+1"}, Case{"[1, 2]", " 2"},
                          Case{"(1,0)", "(1,0)"}, Case{"[1,0", "[1,0"},
                          Case{"1,0]", "1,0]"}, Case{"[", "["}}) {
        bad = "unset";
        EXPECT_FALSE(parseTuple(c.tok, out, &bad)) << c.tok;
        EXPECT_EQ(bad, c.bad) << c.tok;
    }
}

} // namespace
} // namespace uov
