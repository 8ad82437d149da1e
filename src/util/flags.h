#ifndef TRANSER_UTIL_FLAGS_H_
#define TRANSER_UTIL_FLAGS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/build_info.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace transer {

/// \brief The --key=value flag parser of every binary in the repository
/// (bench programs and command-line tools). Every flag the binary
/// understands must be named in `allowed`; any other argument (a typo, a
/// positional, a stray -x) exits with code 2 instead of being silently
/// ignored — a mistyped --time-limit must not quietly run unlimited. A
/// bare `--name` reads as "true". `--version` is handled here so every
/// binary reports its build identity uniformly.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<const char*> allowed) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    for (const auto& arg : args_) {
      if (arg == "--version") {
        const std::string path = argc > 0 ? argv[0] : "transer";
        std::printf("%s\n",
                    FormatVersion(path.substr(path.rfind('/') + 1)).c_str());
        std::exit(0);
      }
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const std::string name = arg.substr(2, arg.find('=') - 2);
      bool known = false;
      for (const char* candidate : allowed) known |= name == candidate;
      if (!known) {
        std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
        std::exit(2);
      }
    }
  }

  double GetDouble(const std::string& name, double fallback) const {
    const std::optional<std::string> raw = Find(name);
    double value = fallback;
    if (raw.has_value() && !ParseDouble(*raw, &value)) BadValue(name, *raw);
    return value;
  }

  int64_t GetInt(const std::string& name, int64_t fallback) const {
    const std::optional<std::string> raw = Find(name);
    int64_t value = fallback;
    if (raw.has_value() && !ParseInt64(*raw, &value)) BadValue(name, *raw);
    return value;
  }

  /// A time budget in seconds, 0 = unlimited. Anything but a finite
  /// value >= 0 exits 2 (`inf` too: 0 already means unlimited).
  double GetTimeLimitSeconds(const std::string& name, double fallback) const {
    const double seconds = GetDouble(name, fallback);
    if (!(seconds >= 0.0 && std::isfinite(seconds))) {
      BadValue(name, Find(name).value_or(""),
               "a finite number of seconds >= 0");
    }
    return seconds;
  }

  /// A memory budget or size given in megabytes and returned in bytes
  /// (with the default floor, 0 = unlimited). Anything but an integer
  /// >= `floor_mb` whose byte count fits size_t exits 2.
  size_t GetMemoryLimitBytes(const std::string& name, double fallback_mb,
                             double floor_mb = 0.0) const {
    constexpr double kMaxMb =
        static_cast<double>(std::numeric_limits<size_t>::max() >> 20);
    const double mb = GetDouble(name, fallback_mb);
    if (!(mb >= floor_mb && mb <= kMaxMb && mb == std::floor(mb))) {
      BadValue(name, Find(name).value_or(""),
               StrFormat("an integer number of MB >= %g that fits size_t",
                         floor_mb)
                   .c_str());
    }
    return static_cast<size_t>(mb) << 20;
  }

  /// A whole count (records, slots, lanes, bytes) of type T that is at
  /// least `floor`. Anything negative, fractional, past T's range or
  /// below `floor` exits 2, so a negative count can never wrap to a
  /// huge unsigned one.
  template <typename T>
  T GetCount(const std::string& name, T fallback, T floor = 0) const {
    static_assert(std::is_integral_v<T>);
    constexpr uint64_t kMax =
        std::min<uint64_t>(std::numeric_limits<T>::max(),
                           std::numeric_limits<int64_t>::max());
    const std::optional<std::string> raw = Find(name);
    if (!raw.has_value()) return fallback;
    int64_t value = 0;
    if (!ParseInt64(*raw, &value) || value < 0 ||
        static_cast<uint64_t>(value) < static_cast<uint64_t>(floor) ||
        static_cast<uint64_t>(value) > kMax) {
      BadValue(name, *raw,
               StrFormat("a whole number in [%llu, %llu]",
                         static_cast<unsigned long long>(floor),
                         static_cast<unsigned long long>(kMax))
                   .c_str());
    }
    return static_cast<T>(value);
  }

  /// Anything but "false" or "0" is true.
  bool GetBool(const std::string& name, bool fallback) const {
    const std::optional<std::string> raw = Find(name);
    if (!raw.has_value()) return fallback;
    return *raw != "false" && *raw != "0";
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    return Find(name).value_or(fallback);
  }

 private:
  /// The value of the first `--name=value` or bare `--name` argument.
  std::optional<std::string> Find(const std::string& name) const {
    const std::string prefix = "--" + name + "=";
    for (const auto& arg : args_) {
      if (StartsWith(arg, prefix)) return arg.substr(prefix.size());
      if (arg == "--" + name) return "true";
    }
    return std::nullopt;
  }

  [[noreturn]] static void BadValue(const std::string& name,
                                    const std::string& raw,
                                    const char* expected = nullptr) {
    std::fprintf(stderr, "bad value for --%s: %s", name.c_str(), raw.c_str());
    if (expected != nullptr) std::fprintf(stderr, " (expected %s)", expected);
    std::fputc('\n', stderr);
    std::exit(2);
  }

  std::vector<std::string> args_;
};

/// Reads --threads (default 0 = hardware width), installs it as the
/// process-wide default lane count, and returns the resolved value.
/// Every binary taking this flag produces bit-identical results at any
/// --threads value; only wall time changes.
inline int ConfigureThreads(const Flags& flags) {
  const int64_t threads = flags.GetInt("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr, "--threads=%lld is invalid: must be >= 0\n",
                 static_cast<long long>(threads));
    std::exit(2);
  }
  SetDefaultThreadCount(static_cast<int>(threads));
  return DefaultThreadCount();
}

}  // namespace transer

#endif  // TRANSER_UTIL_FLAGS_H_
