#ifndef TRANSER_TEXT_JARO_WINKLER_H_
#define TRANSER_TEXT_JARO_WINKLER_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace transer {

/// The byte values occurring in a string, one bit per value: bit
/// (b & 63) of word b >> 6 is set when byte b occurs.
using ByteSet = std::array<uint64_t, 4>;

/// The ByteSet of `s`.
ByteSet ByteSetOf(std::string_view s);

/// Jaro similarity in [0, 1]. Two empty strings are similarity 1.
double JaroSimilarity(std::string_view a, std::string_view b);

/// JaroSimilarity() of two strings whose byte sets (ByteSetOf) the caller
/// holds, so a string scored against many computes its set once. This is
/// the one Jaro kernel: every Jaro and Jaro-Winkler path runs it. It is
/// symmetric bit for bit — Jaro(a, b) and Jaro(b, a) are the same double
/// (DESIGN.md §9.2; text_test checks it exhaustively on short strings).
double JaroSimilarity(std::string_view a, std::string_view b,
                      const ByteSet& set_a, const ByteSet& set_b);

/// Jaro-Winkler similarity: Jaro boosted by the length of the common
/// prefix (up to `max_prefix`) scaled by `prefix_weight`. The classic
/// parameters are prefix_weight=0.1, max_prefix=4; prefix_weight must be
/// <= 1/max_prefix to stay within [0, 1]. This is the paper's comparator
/// of choice for person and author names [Christen 2012].
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_weight = 0.1,
                             int max_prefix = 4);

/// JaroWinklerSimilarity() with the classic parameters, over byte sets
/// the caller holds (see the kernel above). Symmetric bit for bit.
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             const ByteSet& set_a, const ByteSet& set_b);

}  // namespace transer

#endif  // TRANSER_TEXT_JARO_WINKLER_H_
