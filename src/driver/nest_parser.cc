#include "driver/nest_parser.h"

#include <iterator>
#include <optional>
#include <sstream>

#include "support/error.h"
#include "support/flags.h"

namespace uov {

namespace {

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    auto hash = s.find('#');
    if (hash != std::string::npos)
        s.erase(hash);
    auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

[[noreturn]] void
fail(int line_no, const std::string &msg)
{
    throw UovUserError("nest parse error, line " +
                       std::to_string(line_no) + ": " + msg);
}

/** Parse "NAME[o1,o2,...]" into a uniform access. */
Access
parseAccess(const std::string &text, int line_no)
{
    auto lb = text.find('[');
    if (lb == std::string::npos || text.back() != ']')
        fail(line_no, "expected NAME[o1,o2,...], got '" + text + "'");
    std::string name = text.substr(0, lb);
    if (name.empty())
        fail(line_no, "empty array name in '" + text + "'");
    std::string inside = text.substr(lb + 1, text.size() - lb - 2);
    if (inside.empty())
        fail(line_no, "access '" + text + "' has no offsets");

    std::vector<int64_t> offsets;
    for (size_t begin = 0, comma = 0; comma != std::string::npos;
         begin = comma + 1) {
        comma = inside.find(',', begin);
        std::string tok = inside.substr(begin, comma - begin);
        if (!parseWholeNumber(tok, offsets.emplace_back()))
            fail(line_no, "bad offset '" + tok + "'");
    }
    return uniformAccess(name, IVec(std::move(offsets)));
}

} // namespace

LoopNest
parseNest(std::istream &in)
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

    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        std::istringstream ss(cleanLine(raw));
        std::vector<std::string> tok{
            std::istream_iterator<std::string>(ss), {}};
        if (tok.empty())
            continue;
        const std::string &keyword = tok[0];
        // Every keyword but bounds takes exactly one field.
        auto field = [&](const std::string &what) -> const std::string & {
            if (tok.size() < 2)
                fail(line_no, keyword + " needs " + what);
            if (tok.size() > 2)
                fail(line_no, "unexpected token '" + tok[2] + "'");
            return tok[1];
        };

        if (keyword == "nest") {
            name = field("a name");
        } else if (keyword == "bounds") {
            if (tok.size() == 1)
                fail(line_no, "bounds needs at least one range");
            std::vector<int64_t> los(tok.size() - 1), his(tok.size() - 1);
            for (size_t i = 1; i < tok.size(); ++i) {
                auto dots = tok[i].find("..");
                if (dots == std::string::npos ||
                    !parseWholeNumber(tok[i].substr(0, dots), los[i - 1]) ||
                    !parseWholeNumber(tok[i].substr(dots + 2), his[i - 1]))
                    fail(line_no, "bad range '" + tok[i] +
                                      "', expected lo..hi");
            }
            lo = IVec(std::move(los));
            hi = IVec(std::move(his));
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
            fail(line_no, "unknown keyword '" + keyword + "'");
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

LoopNest
parseNestString(const std::string &text)
{
    std::istringstream iss(text);
    return parseNest(iss);
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
