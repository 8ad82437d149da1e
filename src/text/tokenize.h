#ifndef TRANSER_TEXT_TOKENIZE_H_
#define TRANSER_TEXT_TOKENIZE_H_

#include <cctype>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace transer {

/// Calls `fn(word)` for each whitespace-separated word of `text`, in
/// order, with a view into `text` — WordTokens() without the copies.
template <typename Fn>
void ForEachWord(std::string_view text, Fn&& fn) {
  size_t begin = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() ||
        std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      if (i > begin) fn(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
}

/// Splits on whitespace, dropping empty tokens.
std::vector<std::string> WordTokens(std::string_view text);

/// WordTokens() as views into `text`.
std::vector<std::string_view> WordViews(std::string_view text);

/// Character q-grams of the string; strings shorter than q yield the
/// string itself (if non-empty). With `padded`, the string is framed by
/// q-1 sentinel '#' / '$' characters first, which weights boundaries.
std::vector<std::string> QGrams(std::string_view text, size_t q,
                                bool padded = false);

/// Sorted unique copy of `tokens` (set semantics for Jaccard/Dice).
std::vector<std::string> UniqueSorted(std::vector<std::string> tokens);

/// UniqueSorted() in place over views: sorts `words`, moves the unique
/// ones to the front and returns how many there are.
size_t SortUniqueWords(std::span<std::string_view> words);

}  // namespace transer

#endif  // TRANSER_TEXT_TOKENIZE_H_
