#include "text/char_ngram_embedder.h"

#include <algorithm>

#include "linalg/vector_ops.h"
#include "util/logging.h"

namespace transer {

namespace {

// FNV-1a 64-bit over the gram bytes mixed with a salt.
uint64_t HashGram(std::string_view gram, uint64_t salt) {
  uint64_t h = 14695981039346656037ULL ^ salt;
  for (char c : gram) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Deterministic pseudo-random double in [-1, 1] from a hash state.
double HashToUnit(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
}

// Frames `text` into the thread-local buffer ("<text>") so boundary
// grams differ from interior grams; returns a view into the buffer.
std::string_view FrameText(std::string_view text) {
  thread_local std::string framed;
  framed.assign("<");
  framed.append(text);
  framed.push_back('>');
  return framed;
}

}  // namespace

CharNgramEmbedder::CharNgramEmbedder(CharNgramEmbedderOptions options)
    : options_(options) {
  TRANSER_CHECK_GT(options_.dimension, 0u);
  TRANSER_CHECK_GE(options_.max_n, options_.min_n);
  TRANSER_CHECK_GT(options_.min_n, 0u);
}

void CharNgramEmbedder::AddNgram(std::string_view gram,
                                 std::span<double> acc) const {
  const uint64_t base = HashGram(gram, options_.seed);
  for (size_t d = 0; d < options_.dimension; ++d) {
    acc[d] += HashToUnit(base + 0x9e3779b97f4a7c15ULL * (d + 1));
  }
}

void CharNgramEmbedder::EmbedInto(std::string_view text,
                                  std::span<double> out) const {
  TRANSER_CHECK_EQ(out.size(), options_.dimension);
  std::fill(out.begin(), out.end(), 0.0);
  if (text.empty()) return;
  const std::string_view framed = FrameText(text);
  for (size_t n = options_.min_n; n <= options_.max_n; ++n) {
    if (framed.size() < n) break;
    for (size_t i = 0; i + n <= framed.size(); ++i) {
      AddNgram(framed.substr(i, n), out);
    }
  }
  const double norm = L2Norm(std::span<const double>(out.data(), out.size()));
  if (norm <= 0.0) return;
  for (double& x : out) x /= norm;
}

std::vector<double> CharNgramEmbedder::Embed(std::string_view text) const {
  std::vector<double> acc(options_.dimension, 0.0);
  EmbedInto(text, acc);
  return acc;
}

std::vector<double> CharNgramEmbedder::EmbedFields(
    const std::vector<std::string>& fields) const {
  std::vector<double> out(options_.dimension * fields.size());
  for (size_t f = 0; f < fields.size(); ++f) {
    EmbedInto(fields[f], std::span<double>(
                             out.data() + f * options_.dimension,
                             options_.dimension));
  }
  return out;
}

}  // namespace transer
