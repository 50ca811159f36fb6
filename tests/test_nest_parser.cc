/**
 * @file
 * Tests for the nest text format: valid inputs, precise error
 * reporting, round-trips, and end-to-end through the pipeline.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/pipeline.h"
#include "driver/nest_parser.h"
#include "fuzz/generator.h"
#include "support/error.h"
#include "support/rng.h"

namespace uov {
namespace {

const char *kFivePoint =
    "# 5-point stencil\n"
    "nest stencil5\n"
    "bounds 1..18 0..99\n"
    "statement B\n"
    "  write B[0,0]\n"
    "  read  B[-1,-2]\n"
    "  read  B[-1,-1]\n"
    "  read  B[-1,0]\n"
    "  read  B[-1,1]\n"
    "  read  B[-1,2]\n";

TEST(NestParser, ParsesFivePoint)
{
    LoopNest nest = parseNestString(kFivePoint);
    EXPECT_EQ(nest.name(), "stencil5");
    EXPECT_EQ(nest.depth(), 2u);
    EXPECT_EQ(nest.lo(), (IVec{1, 0}));
    EXPECT_EQ(nest.hi(), (IVec{18, 99}));
    ASSERT_EQ(nest.statements().size(), 1u);
    EXPECT_EQ(nest.statement(0).reads.size(), 5u);
    EXPECT_EQ(nest.statement(0).write.array, "B");
    EXPECT_EQ(nest.statement(0).reads[0].offset, (IVec{-1, -2}));
}

TEST(NestParser, ParsedNestRunsThroughPipeline)
{
    LoopNest nest = parseNestString(kFivePoint);
    MappingPlan plan = planStorageMapping(nest, 0);
    EXPECT_EQ(plan.search.best_uov, (IVec{2, 0}));
    EXPECT_EQ(plan.mapping.cellCount(), 200);
}

TEST(NestParser, MultiStatementBlocks)
{
    LoopNest nest = parseNestString(
        "nest two\n"
        "bounds 1..4 1..4\n"
        "statement E\n"
        "  write E[0,0]\n"
        "  read E[0,-1]\n"
        "statement D\n"
        "  write D[0,0]\n"
        "  read D[-1,0]\n"
        "  read E[0,0]\n");
    ASSERT_EQ(nest.statements().size(), 2u);
    EXPECT_EQ(nest.statement(1).reads[1].array, "E");
}

TEST(NestParser, CommentsAndWhitespaceTolerated)
{
    LoopNest nest = parseNestString(
        "\n  # leading comment\n"
        "nest  n   # trailing comment\n"
        "\t bounds 0..3 0..3\n"
        "statement s\n"
        "  write A[0,0]   # the write\n"
        "  read A[-1,-1]\n\n");
    EXPECT_EQ(nest.tripCount(), 16);
}

TEST(NestParser, ThreeDimensional)
{
    LoopNest nest = parseNestString(
        "nest heat\n"
        "bounds 1..8 0..15 0..15\n"
        "statement H\n"
        "  write H[0,0,0]\n"
        "  read H[-1,0,0]\n"
        "  read H[-1,1,0]\n"
        "  read H[-1,-1,0]\n"
        "  read H[-1,0,1]\n"
        "  read H[-1,0,-1]\n");
    EXPECT_EQ(nest.depth(), 3u);
    MappingPlan plan = planStorageMapping(nest, 0);
    EXPECT_EQ(plan.search.best_uov, (IVec{2, 0, 0}));
}

/** Parsing @p text must fail with a message containing @p needle. */
void
expect_error(const std::string &text, const std::string &needle)
{
    try {
        parseNestString(text);
        FAIL() << "expected parse failure for: " << text;
    } catch (const UovUserError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(NestParser, ErrorsCarryLineNumbers)
{
    expect_error("nest n\nbounds 0..3\nstatement s\n  write A(0)\n",
                 "line 4");
    expect_error("nest n\nbounds 0-3\n", "bad range");
    expect_error("nest n\nbounds 0..3\nfrobnicate\n",
                 "unknown keyword");
    expect_error("nest n\nbounds 0..3\n  read A[0]\n",
                 "outside a statement");
    expect_error("nest n\nbounds 0..3\nstatement s\n  write A[x]\n",
                 "bad offset");
}

// Every token of a line is consumed, and every integer is one whole
// token: a second access on a read line, a partial range or offset,
// and junk after an access or a name are errors, never dropped.
TEST(NestParser, RejectsLeftoverAndPartialTokens)
{
    const std::string head = "nest n\nbounds 0..9 0..5\nstatement s\n";
    expect_error(head + "  write A[0,0]\n  read A[-1,0] A[-2,0]\n",
                 "line 5: unexpected token 'A[-2,0]'");
    expect_error("nest n\nbounds 0..9x 0..5\n",
                 "line 2: bad range '0..9x', expected lo..hi");
    expect_error("nest n\nbounds 0x..9 0..5\n", "line 2: bad range");
    expect_error("nest n\nbounds 0..9 0..+5\n", "line 2: bad range");
    expect_error("nest n\nbounds 0..99999999999999999999\n",
                 "line 2: bad range");
    expect_error(head + "  write A[0,0]junk\n",
                 "line 4: expected NAME[o1,o2,...], got 'A[0,0]junk'");
    expect_error(head + "  write A[0,0] junk\n",
                 "line 4: unexpected token 'junk'");
    expect_error(head + "  write A[0,0]\n  read A[-1x,0]\n",
                 "line 5: bad offset '-1x'");
    expect_error(head + "  write A[0,]\n", "line 4: bad offset ''");
    expect_error(head + "  write A[0, 0]\n",
                 "line 4: unexpected token '0]'");
    expect_error(head + "  write\n", "line 4: write needs an access");
    expect_error("nest n extra\n", "line 1: unexpected token 'extra'");
    expect_error("nest n\nbounds 0..3\nstatement s t\n",
                 "line 3: unexpected token 't'");
}

// A line with no token -- "\v", or "\f # x" once its comment is
// gone -- is skipped, and still counts toward the line numbers.
TEST(NestParser, SkipsLinesWithoutAToken)
{
    LoopNest nest = parseNestString("\v\nnest n\n\f # x\nbounds 0..3\n"
                                    "statement s\n \r\n  write A[0]\n");
    EXPECT_EQ(nest.name(), "n");
    EXPECT_EQ(nest.statement(0).write.offset, (IVec{0}));
    expect_error("\v\n\f # x\nnest n\nbounds 0..3\nfrobnicate\n",
                 "line 5: unknown keyword 'frobnicate'");
}

// Lines are numbered as std::getline reads them: a final newline ends
// the last line and opens none.
TEST(NestParser, FinalNewlineOpensNoLine)
{
    const std::string text = "nest n\nbounds 0..3\nstatement s";
    expect_error(text, "line 3: statement 's' has no write access");
    expect_error(text + "\n", "line 3: statement 's' has no write access");
    expect_error(text + "\n\n",
                 "line 4: statement 's' has no write access");
    // The stream overload reads the same lines.
    std::istringstream in(text + "\n");
    try {
        parseNest(in);
        FAIL() << "expected parse failure";
    } catch (const UovUserError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3: statement 's'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NestParser, StructuralErrors)
{
    EXPECT_THROW(parseNestString(""), UovUserError);
    EXPECT_THROW(parseNestString("nest n\n"), UovUserError);
    EXPECT_THROW(parseNestString("nest n\nbounds 0..3\n"),
                 UovUserError);
    // Statement without a write.
    EXPECT_THROW(parseNestString("nest n\nbounds 0..3\nstatement s\n"
                                 "  read A[0]\n"),
                 UovUserError);
    // Rank mismatch between bounds and accesses.
    EXPECT_THROW(parseNestString("nest n\nbounds 0..3 0..3\n"
                                 "statement s\n  write A[0]\n"),
                 UovUserError);
    // Two writes in one statement.
    EXPECT_THROW(parseNestString("nest n\nbounds 0..3\nstatement s\n"
                                 "  write A[0]\n  write B[0]\n"),
                 UovUserError);
}

TEST(NestParser, RoundTrip)
{
    LoopNest original = parseNestString(kFivePoint);
    std::string text = formatNest(original);
    LoopNest reparsed = parseNestString(text);
    EXPECT_EQ(reparsed.name(), original.name());
    EXPECT_EQ(reparsed.lo(), original.lo());
    EXPECT_EQ(reparsed.hi(), original.hi());
    ASSERT_EQ(reparsed.statements().size(),
              original.statements().size());
    for (size_t i = 0; i < original.statements().size(); ++i) {
        EXPECT_EQ(reparsed.statement(i).write.offset,
                  original.statement(i).write.offset);
        EXPECT_EQ(reparsed.statement(i).reads.size(),
                  original.statement(i).reads.size());
    }
}

// formatNest must be an exact left inverse of parseNest over the
// whole space the fuzzer draws from: format(parse(format(n))) ==
// format(n) and the reparsed IR matches field by field.  1000
// generated nests cover 2-D/3-D bounds (including negative corners),
// 1..3 statements, and stencils with mixed-sign offsets.
TEST(NestParser, FuzzedRoundTrip1000)
{
    SplitMix64 rng(20260805);
    for (int i = 0; i < 1000; ++i) {
        LoopNest nest = fuzz::randomNest(rng);
        std::string text = formatNest(nest);
        LoopNest reparsed = parseNestString(text);
        ASSERT_EQ(formatNest(reparsed), text) << text;
        EXPECT_EQ(reparsed.name(), nest.name());
        EXPECT_EQ(reparsed.lo(), nest.lo());
        EXPECT_EQ(reparsed.hi(), nest.hi());
        ASSERT_EQ(reparsed.statements().size(),
                  nest.statements().size());
        for (size_t s = 0; s < nest.statements().size(); ++s) {
            const Statement &a = nest.statement(s);
            const Statement &b = reparsed.statement(s);
            EXPECT_EQ(b.name, a.name);
            EXPECT_EQ(b.write.array, a.write.array);
            EXPECT_EQ(b.write.offset, a.write.offset);
            ASSERT_EQ(b.reads.size(), a.reads.size());
            for (size_t r = 0; r < a.reads.size(); ++r) {
                EXPECT_EQ(b.reads[r].array, a.reads[r].array);
                EXPECT_EQ(b.reads[r].offset, a.reads[r].offset);
            }
        }
    }
}

// Comment and whitespace edge cases must parse to the same nest as
// the canonical form -- and the canonical form must contain none of
// them back.
TEST(NestParser, CommentAndWhitespaceEdgeCases)
{
    const char *messy =
        "\n"
        "   # leading blank line and indented comment\n"
        "nest   edgecase   \n"
        "\t bounds\t0..3   -2..2\n"
        "# comment between sections\n"
        "   statement   S\n"
        "\twrite S[0,0]   \n"
        "  read\t S[-1,2]\n"
        "\n"
        "  read  S[0,-1]  # trailing comment, stripped\n";
    LoopNest a = parseNestString(messy);
    EXPECT_EQ(a.name(), "edgecase");
    EXPECT_EQ(a.lo(), (IVec{0, -2}));
    EXPECT_EQ(a.hi(), (IVec{3, 2}));
    ASSERT_EQ(a.statements().size(), 1u);
    EXPECT_EQ(a.statement(0).reads.size(), 2u);

    std::string canon = formatNest(a);
    LoopNest b = parseNestString(canon);
    EXPECT_EQ(formatNest(b), canon);
    EXPECT_EQ(canon.find('\t'), std::string::npos);
}

} // namespace
} // namespace uov
