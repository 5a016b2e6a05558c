#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace gb {

namespace {

[[noreturn]] void bad_argument(std::string_view name, const char* value,
                               double min, double max) {
    std::fprintf(stderr,
                 "error: invalid %.*s '%s' (want a number in [%g, %g])\n",
                 static_cast<int>(name.size()), name.data(), value, min, max);
    std::exit(2);
}

} // namespace

long long int_arg(int argc, char** argv, int index, long long fallback,
                  std::string_view name, long long min, long long max) {
    if (index >= argc) {
        return fallback;
    }
    const auto parsed = parse_integer(argv[index]);
    if (!parsed || *parsed < min || *parsed > max) {
        bad_argument(name, argv[index], static_cast<double>(min),
                     static_cast<double>(max));
    }
    return *parsed;
}

double double_arg(int argc, char** argv, int index, double fallback,
                  std::string_view name, double min, double max) {
    if (index >= argc) {
        return fallback;
    }
    const auto parsed = parse_number(argv[index]);
    if (!parsed || *parsed < min || *parsed > max) {
        bad_argument(name, argv[index], min, max);
    }
    return *parsed;
}

std::optional<std::string> take_flag_value(int& argc, char** argv,
                                           std::string_view name) {
    std::optional<std::string> value;
    int occurrences = 0;
    int i = 1;
    while (i < argc) {
        const std::string_view arg(argv[i]);
        if (arg == name) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %.*s needs a value\n",
                             static_cast<int>(name.size()), name.data());
                std::exit(2);
            }
            value = argv[i + 1];
            ++occurrences;
            for (int j = i; j + 2 < argc; ++j) {
                argv[j] = argv[j + 2];
            }
            argc -= 2;
            continue; // argv[i] is now the next unseen argument
        }
        if (arg.size() > name.size() &&
            arg.substr(0, name.size()) == name && arg[name.size()] == '=') {
            value = arg.substr(name.size() + 1);
            ++occurrences;
            for (int j = i; j + 1 < argc; ++j) {
                argv[j] = argv[j + 1];
            }
            argc -= 1;
            continue;
        }
        ++i;
    }
    if (occurrences > 1) {
        std::fprintf(stderr,
                     "warning: %.*s given %d times, using last value '%s'\n",
                     static_cast<int>(name.size()), name.data(), occurrences,
                     value->c_str());
    }
    return value;
}

} // namespace gb
