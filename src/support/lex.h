/**
 * @file
 * The one lexer for text that arrives from outside the program: the
 * request protocol, the nest grammar, the UOV_FAILPOINTS spec, PATH
 * and the admin plane's HTTP request line.  Each grammar keeps its
 * own clauses and error texts; only the lexing lives here.  It works
 * on std::string_view and allocates nothing:
 *
 *  - stripComment() drops a '#' comment;
 *  - Tokens walks the runs between the six C-locale spaces (' ',
 *    '\t', '\n', '\v', '\f', '\r'), the ones operator>> splits on;
 *  - Fields walks a list split on one separator, empty fields kept;
 *  - parseWholeNumber, parseRange ("lo..hi") and parseTuple
 *    ("[o1,o2,...]") read numbers: each one whole token that fits,
 *    no '+', blank or junk.
 */

#ifndef UOV_SUPPORT_LEX_H
#define UOV_SUPPORT_LEX_H

#include <charconv>
#include <cstdint>
#include <string_view>
#include <vector>

namespace uov {

/** Parse all of @p tok as one T in range: no '+', blank or junk, no
 *  '-' on an unsigned T.  Leaves @p out alone on failure. */
template <typename T>
bool
parseWholeNumber(std::string_view tok, T &out)
{
    T value{};
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false;
    out = value;
    return true;
}

/** The six spaces of the C locale. */
constexpr std::string_view kSpaces = " \t\n\v\f\r";

/** @p line up to its first '#'. */
inline std::string_view
stripComment(std::string_view line)
{
    return line.substr(0, line.find('#'));
}

/** The space-separated tokens of a text, in order. */
class Tokens
{
  public:
    explicit Tokens(std::string_view text) : _rest(text) {}

    /** The next token into @p tok; at the end, false and @p tok is
     *  left alone (as operator>> leaves its string). */
    bool
    next(std::string_view &tok)
    {
        size_t begin = _rest.find_first_not_of(kSpaces);
        if (begin == std::string_view::npos)
            return false;
        size_t end = _rest.find_first_of(kSpaces, begin);
        tok = _rest.substr(begin, end - begin);
        _rest.remove_prefix(begin + tok.size());
        return true;
    }

  private:
    std::string_view _rest;
};

/** The @p sep-separated fields of a list, empty ones included:
 *  "a,,b" is a, "", b, and "" is one empty field. */
class Fields
{
  public:
    Fields(std::string_view list, char sep) : _rest(list), _sep(sep) {}

    /** The next field into @p field; false after the last. */
    bool
    next(std::string_view &field)
    {
        if (_done)
            return false;
        field = _rest.substr(0, _rest.find(_sep));
        _done = field.size() == _rest.size();
        _rest.remove_prefix(_done ? field.size() : field.size() + 1);
        return true;
    }

  private:
    std::string_view _rest;
    char _sep;
    bool _done = false;
};

/** Read "lo..hi", split at its first "..". */
inline bool
parseRange(std::string_view tok, int64_t &lo, int64_t &hi)
{
    size_t dots = tok.find("..");
    return dots != std::string_view::npos &&
           parseWholeNumber(tok.substr(0, dots), lo) &&
           parseWholeNumber(tok.substr(dots + 2), hi);
}

/** Read "[o1,o2,...]" into @p out, every field one whole number and
 *  none empty.  On failure @p bad (when given) names the first bad
 *  field, or all of @p tok when the brackets are missing. */
inline bool
parseTuple(std::string_view tok, std::vector<int64_t> &out,
           std::string_view *bad = nullptr)
{
    out.clear();
    std::string_view field = tok;
    bool ok = tok.size() >= 2 && tok.front() == '[' && tok.back() == ']';
    if (ok) {
        Fields fields(tok.substr(1, tok.size() - 2), ',');
        while (ok && fields.next(field))
            ok = parseWholeNumber(field, out.emplace_back());
    }
    if (!ok && bad != nullptr)
        *bad = field;
    return ok;
}

} // namespace uov

#endif // UOV_SUPPORT_LEX_H
