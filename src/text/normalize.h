#ifndef TRANSER_TEXT_NORMALIZE_H_
#define TRANSER_TEXT_NORMALIZE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace transer {

/// \brief Options controlling attribute-value normalisation before
/// comparison. Matches the standard ER pre-processing step [Christen 2012].
struct NormalizeOptions {
  bool lowercase = true;
  bool strip_punctuation = true;    ///< punctuation -> space
  bool collapse_whitespace = true;  ///< runs of spaces -> one space
  bool trim = true;
};

/// Normalises an attribute value per `options`.
std::string NormalizeValue(std::string_view value,
                           const NormalizeOptions& options = {});

/// NormalizeValue() into a caller-owned buffer of at least value.size()
/// chars (normalisation never lengthens a value); returns the normalised
/// length. The allocation-free form used by blocking and comparison.
size_t NormalizeInto(std::string_view value, const NormalizeOptions& options,
                     char* out);

/// True if the value is empty after trimming (treated as missing).
bool IsMissing(std::string_view value);

}  // namespace transer

#endif  // TRANSER_TEXT_NORMALIZE_H_
