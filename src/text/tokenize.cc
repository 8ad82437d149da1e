#include "text/tokenize.h"

#include <algorithm>

#include "util/logging.h"

namespace transer {

std::vector<std::string> WordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachWord(text, [&](std::string_view word) { tokens.emplace_back(word); });
  return tokens;
}

std::vector<std::string_view> WordViews(std::string_view text) {
  std::vector<std::string_view> words;
  ForEachWord(text, [&](std::string_view word) { words.push_back(word); });
  return words;
}

std::vector<std::string> QGrams(std::string_view text, size_t q,
                                bool padded) {
  TRANSER_CHECK_GT(q, 0u);
  std::string buffer;
  std::string_view source = text;
  if (padded && q > 1) {
    buffer.assign(q - 1, '#');
    buffer.append(text);
    buffer.append(q - 1, '$');
    source = buffer;
  }
  std::vector<std::string> grams;
  if (source.empty()) return grams;
  if (source.size() < q) {
    grams.emplace_back(source);
    return grams;
  }
  grams.reserve(source.size() - q + 1);
  for (size_t i = 0; i + q <= source.size(); ++i) {
    grams.emplace_back(source.substr(i, q));
  }
  return grams;
}

std::vector<std::string> UniqueSorted(std::vector<std::string> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

size_t SortUniqueWords(std::span<std::string_view> words) {
  std::sort(words.begin(), words.end());
  return static_cast<size_t>(std::unique(words.begin(), words.end()) -
                             words.begin());
}

}  // namespace transer
