#include "driver/nest_parser.h"

#include <iterator>
#include <optional>
#include <sstream>

#include "support/error.h"
#include "support/lex.h"

namespace uov {

namespace {

[[noreturn]] void
fail(int line_no, const std::string &msg)
{
    throw UovUserError("nest parse error, line " +
                       std::to_string(line_no) + ": " + msg);
}

/** Parse "NAME[o1,o2,...]" into a uniform access. */
Access
parseAccess(std::string_view text, int line_no)
{
    auto lb = text.find('[');
    if (lb == std::string_view::npos || text.back() != ']')
        fail(line_no, "expected NAME[o1,o2,...], got '" +
                          std::string(text) + "'");
    if (lb == 0)
        fail(line_no, "empty array name in '" + std::string(text) + "'");
    if (lb + 2 == text.size())
        fail(line_no, "access '" + std::string(text) + "' has no offsets");

    std::vector<int64_t> offsets;
    std::string_view bad;
    if (!parseTuple(text.substr(lb), offsets, &bad))
        fail(line_no, "bad offset '" + std::string(bad) + "'");
    return uniformAccess(std::string(text.substr(0, lb)),
                         IVec(offsets));
}

} // namespace

LoopNest
parseNest(std::istream &in)
{
    return parseNestString(
        std::string(std::istreambuf_iterator<char>(in), {}));
}

LoopNest
parseNestString(std::string_view text)
{
    std::string name;
    std::optional<IVec> lo, hi;
    std::vector<Statement> stmts;
    std::optional<Statement> current;

    auto flush_statement = [&](int line_no) {
        if (!current)
            return;
        if (current->write.array.empty())
            fail(line_no, "statement '" + current->name +
                              "' has no write access");
        stmts.push_back(std::move(*current));
        current.reset();
    };

    // Lines as std::getline reads them: a final '\n' ends the last
    // line and opens none.
    if (!text.empty() && text.back() == '\n')
        text.remove_suffix(1);
    Fields lines(text, '\n');
    int line_no = 0;
    for (std::string_view raw; lines.next(raw);) {
        ++line_no;
        Tokens toks(stripComment(raw));
        std::string_view keyword;
        if (!toks.next(keyword))
            continue;
        // Every keyword but bounds takes exactly one field.
        auto field = [&](const char *what) {
            std::string_view value, extra;
            if (!toks.next(value))
                fail(line_no, std::string(keyword) + " needs " + what);
            if (toks.next(extra))
                fail(line_no,
                     "unexpected token '" + std::string(extra) + "'");
            return value;
        };

        if (keyword == "nest") {
            name = field("a name");
        } else if (keyword == "bounds") {
            std::vector<int64_t> los, his;
            for (std::string_view range; toks.next(range);)
                if (!parseRange(range, los.emplace_back(),
                                his.emplace_back()))
                    fail(line_no, "bad range '" + std::string(range) +
                                      "', expected lo..hi");
            if (los.empty())
                fail(line_no, "bounds needs at least one range");
            lo = IVec(los);
            hi = IVec(his);
        } else if (keyword == "statement") {
            flush_statement(line_no);
            current.emplace();
            current->name = field("a name");
        } else if (keyword == "write") {
            if (!current)
                fail(line_no, "'write' outside a statement block");
            if (!current->write.array.empty())
                fail(line_no, "statement already has a write");
            current->write = parseAccess(field("an access"), line_no);
        } else if (keyword == "read") {
            if (!current)
                fail(line_no, "'read' outside a statement block");
            current->reads.push_back(
                parseAccess(field("an access"), line_no));
        } else {
            fail(line_no, "unknown keyword '" + std::string(keyword) + "'");
        }
    }
    flush_statement(line_no);

    UOV_REQUIRE(!name.empty(), "nest description has no 'nest' line");
    UOV_REQUIRE(lo.has_value(), "nest description has no 'bounds' line");
    UOV_REQUIRE(!stmts.empty(), "nest description has no statements");

    LoopNest nest(name, *lo, *hi);
    for (auto &s : stmts) {
        UOV_REQUIRE(s.write.offset.dim() == nest.depth(),
                    "statement '" << s.name << "' access rank "
                        << s.write.offset.dim()
                        << " does not match bounds rank "
                        << nest.depth());
        nest.addStatement(std::move(s));
    }
    return nest;
}

std::string
formatNest(const LoopNest &nest)
{
    std::ostringstream oss;
    oss << "nest " << nest.name() << "\n";
    oss << "bounds";
    for (size_t c = 0; c < nest.depth(); ++c)
        oss << " " << nest.lo()[c] << ".." << nest.hi()[c];
    oss << "\n";
    auto emit_access = [&](const Access &a) {
        oss << a.array << "[";
        for (size_t c = 0; c < a.offset.dim(); ++c) {
            if (c)
                oss << ",";
            oss << a.offset[c];
        }
        oss << "]";
    };
    for (const auto &s : nest.statements()) {
        oss << "statement " << s.name << "\n";
        oss << "  write ";
        emit_access(s.write);
        oss << "\n";
        for (const auto &r : s.reads) {
            oss << "  read ";
            emit_access(r);
            oss << "\n";
        }
    }
    return oss.str();
}

} // namespace uov
