#include "support/flags.h"

#include <algorithm>
#include <iostream>
#include <sstream>

namespace uov {

FlagTable &
FlagTable::add(const std::string &spec, std::string help, Setter set)
{
    _entries.push_back({spec.substr(0, spec.find(' ')), spec,
                        std::move(help), std::move(set)});
    return *this;
}

bool
FlagTable::parse(const std::vector<std::string> &args,
                 std::vector<std::string> *positionals) const
{
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--help" || a == "-h")
            return false;
        auto e = std::find_if(_entries.begin(), _entries.end(),
                              [&](const Entry &x) { return x.name == a; });
        if (e == _entries.end()) {
            if (positionals == nullptr || a.rfind('-', 0) == 0)
                throw FlagError("unknown option '" + a + "'", true);
            positionals->push_back(a);
        } else if (e->name == e->spec) {
            e->set("");
        } else if (i + 1 == args.size()) {
            throw FlagError(a + " needs a value");
        } else {
            try {
                e->set(args[++i]);
            } catch (const std::invalid_argument &) {
                throw FlagError("bad numeric value for " + a);
            }
        }
    }
    return true;
}

void
FlagTable::usage(std::ostream &os) const
{
    os << _head;
    for (const Entry &e : _entries) {
        std::string line = "  " + e.spec;
        std::istringstream help(e.help);
        for (std::string text; std::getline(help, text); line.clear()) {
            line.resize(line.size() < _column ? _column : line.size() + 2,
                        ' ');
            os << line << text << "\n";
        }
        if (e.help.empty())
            os << line << "\n";
    }
}

std::optional<int>
FlagTable::run(int argc, char **argv,
               std::vector<std::string> *positionals) const
{
    try {
        if (parse({argv + 1, argv + argc}, positionals))
            return std::nullopt;
        usage(std::cout);
        return 0;
    } catch (const FlagError &e) {
        std::cerr << _program << ": " << e.what() << "\n";
        if (e.show_usage)
            usage(std::cerr);
        return 2;
    }
}

} // namespace uov
