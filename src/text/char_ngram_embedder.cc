#include "text/char_ngram_embedder.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/string_util.h"

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

// One hashed gram of the sparse mode: bucket + deterministic sign.
struct SparseGram {
  uint32_t bucket;
  double sign;
};

}  // namespace

CharNgramEmbedder::CharNgramEmbedder(CharNgramEmbedderOptions options)
    : options_(options) {
  TRANSER_CHECK_GT(options_.dimension, 0u);
  TRANSER_CHECK_GE(options_.max_n, options_.min_n);
  TRANSER_CHECK_GT(options_.min_n, 0u);
  TRANSER_CHECK_GT(options_.sparse_dimension, 0u);
  TRANSER_CHECK_LE(options_.sparse_dimension, kMaxSparseEmbedderDimension);
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

std::vector<double> CharNgramEmbedder::EmbedPair(
    const std::vector<std::string>& a, const std::vector<std::string>& b) const {
  std::vector<double> out;
  EmbedPairInto(a, b, &out);
  return out;
}

void CharNgramEmbedder::EmbedPairInto(const std::vector<std::string>& a,
                                      const std::vector<std::string>& b,
                                      std::vector<double>* out) const {
  TRANSER_CHECK_EQ(a.size(), b.size());
  thread_local std::vector<double> ea, eb;
  ea.resize(options_.dimension);
  eb.resize(options_.dimension);
  out->resize(PairDimension(a.size()));
  double* op = out->data();
  for (size_t f = 0; f < a.size(); ++f) {
    EmbedInto(a[f], ea);
    EmbedInto(b[f], eb);
    for (size_t d = 0; d < options_.dimension; ++d) {
      *op++ = std::fabs(ea[d] - eb[d]);
    }
    for (size_t d = 0; d < options_.dimension; ++d) {
      *op++ = ea[d] * eb[d];
    }
  }
}

void CharNgramEmbedder::EmbedSparse(std::string_view text,
                                    std::vector<uint32_t>* indices,
                                    std::vector<double>* values) const {
  indices->clear();
  values->clear();
  if (text.empty()) return;
  thread_local std::vector<SparseGram> grams;
  grams.clear();
  const std::string_view framed = FrameText(text);
  for (size_t n = options_.min_n; n <= options_.max_n; ++n) {
    if (framed.size() < n) break;
    for (size_t i = 0; i + n <= framed.size(); ++i) {
      const uint64_t h = HashGram(framed.substr(i, n), options_.seed);
      grams.push_back(SparseGram{
          static_cast<uint32_t>(h % options_.sparse_dimension),
          (h >> 63) != 0 ? 1.0 : -1.0});
    }
  }
  std::sort(grams.begin(), grams.end(),
            [](const SparseGram& x, const SparseGram& y) {
              return x.bucket < y.bucket;
            });
  // Merge duplicate buckets (sign sum), then L2-normalise. A bucket
  // whose signs cancel exactly is dropped — zero entries have no place
  // in a CSR row.
  double squared = 0.0;
  for (size_t k = 0; k < grams.size();) {
    const uint32_t bucket = grams[k].bucket;
    double sum = 0.0;
    for (; k < grams.size() && grams[k].bucket == bucket; ++k) {
      sum += grams[k].sign;
    }
    if (sum != 0.0) {
      indices->push_back(bucket);
      values->push_back(sum);
      squared += sum * sum;
    }
  }
  if (squared <= 0.0) return;
  const double inv_norm = 1.0 / std::sqrt(squared);
  for (double& v : *values) v *= inv_norm;
}

void CharNgramEmbedder::EmbedPairSparse(const std::vector<std::string>& a,
                                        const std::vector<std::string>& b,
                                        std::vector<uint32_t>* indices,
                                        std::vector<double>* values) const {
  TRANSER_CHECK_EQ(a.size(), b.size());
  // Pair columns are u32 in the CSR row; the cap on sparse_dimension
  // leaves room for up to 2^11 fields even at the 2^20 ceiling.
  TRANSER_CHECK_LE(SparsePairDimension(a.size()),
                   size_t{0xFFFFFFFF});
  indices->clear();
  values->clear();
  thread_local std::vector<uint32_t> ia, ib;
  thread_local std::vector<double> va, vb;
  const uint64_t stride = 2 * static_cast<uint64_t>(options_.sparse_dimension);
  for (size_t f = 0; f < a.size(); ++f) {
    EmbedSparse(a[f], &ia, &va);
    EmbedSparse(b[f], &ib, &vb);
    const uint64_t diff_base = f * stride;
    const uint64_t prod_base = diff_base + options_.sparse_dimension;
    // |ea - eb| over the union of supports, ascending buckets.
    size_t ka = 0, kb = 0;
    while (ka < ia.size() || kb < ib.size()) {
      uint32_t bucket;
      double d;
      if (kb >= ib.size() || (ka < ia.size() && ia[ka] < ib[kb])) {
        bucket = ia[ka];
        d = va[ka];
        ++ka;
      } else if (ka >= ia.size() || ib[kb] < ia[ka]) {
        bucket = ib[kb];
        d = -vb[kb];
        ++kb;
      } else {
        bucket = ia[ka];
        d = va[ka] - vb[kb];
        ++ka;
        ++kb;
      }
      if (d != 0.0) {
        indices->push_back(static_cast<uint32_t>(diff_base + bucket));
        values->push_back(std::fabs(d));
      }
    }
    // ea * eb over the intersection of supports, ascending buckets.
    ka = 0;
    kb = 0;
    while (ka < ia.size() && kb < ib.size()) {
      if (ia[ka] < ib[kb]) {
        ++ka;
      } else if (ib[kb] < ia[ka]) {
        ++kb;
      } else {
        const double p = va[ka] * vb[kb];
        if (p != 0.0) {
          indices->push_back(static_cast<uint32_t>(prod_base + ia[ka]));
          values->push_back(p);
        }
        ++ka;
        ++kb;
      }
    }
  }
}

}  // namespace transer
