/**
 * @file
 * One flag table per driver (uovd, uovfuzz, uovc): each flag is
 * declared once, and the same entry parses argv and prints its usage
 * line.  Flags apply in argv order, so the last one wins; a valued
 * flag takes the next argument, whatever it looks like; a number is
 * one whole token that fits its field; an unknown flag is an error;
 * --help or -h stops the parse.  Each mistake is one FlagError line.
 */

#ifndef UOV_SUPPORT_FLAGS_H
#define UOV_SUPPORT_FLAGS_H

#include <functional>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/lex.h"

namespace uov {

/** One command-line mistake; what() is its line of text. */
struct FlagError : UovUserError
{
    explicit FlagError(const std::string &msg, bool usage = false)
        : UovUserError(msg), show_usage(usage)
    {}
    bool show_usage; ///< an unknown flag: the usage follows
};

/** A driver's flags, each declared once (see the file comment). */
class FlagTable
{
  public:
    using Setter = std::function<void(const std::string &)>;

    /** @p program prefixes errors, @p head opens the usage, and help
     *  starts at @p column (two blanks after a flag reaching it). */
    FlagTable(std::string program, std::string head, size_t column)
        : _program(std::move(program)), _head(std::move(head)),
          _column(column)
    {}

    /** A flag spelled @p spec as in the usage: "--name" takes no
     *  value (@p set gets ""), "--name PLACEHOLDER" takes the next
     *  argument.  @p help may span lines.  @p set throws FlagError,
     *  or std::invalid_argument for a number parseWholeNumber
     *  rejects, reported as "bad numeric value for --name". */
    FlagTable &add(const std::string &spec, std::string help, Setter set);

    /** A valued flag stored in @p field as one whole number. */
    template <typename T>
    FlagTable &
    number(const std::string &spec, std::string help, T &field)
    {
        return add(spec, std::move(help), [&field](const std::string &v) {
            if (!parseWholeNumber(v, field))
                throw std::invalid_argument(v);
        });
    }

    /** Apply @p args (argv without argv[0]); bare words go to
     *  @p positionals, or are unknown flags when it is null.
     *  @return false when --help or -h stopped the parse
     *  @throws FlagError naming the first mistake */
    bool parse(const std::vector<std::string> &args,
               std::vector<std::string> *positionals = nullptr) const;

    /** The head, then each flag's line(s). */
    void usage(std::ostream &os) const;

    /** main's front door: 0 after --help (usage on stdout), 2 after a
     *  mistake ("<program>: <error>" on stderr), else nullopt. */
    std::optional<int>
    run(int argc, char **argv,
        std::vector<std::string> *positionals = nullptr) const;

  private:
    struct Entry
    {
        std::string name, spec, help; ///< name == spec: takes no value
        Setter set;
    };

    std::string _program, _head;
    size_t _column;
    std::vector<Entry> _entries;
};

} // namespace uov

#endif // UOV_SUPPORT_FLAGS_H
