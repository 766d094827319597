// Dense bit array used for the per-segment object-map and reference-map
// (paper §8): one bit per heap slot, a set bit in the object-map marks the
// start of an object header, a set bit in the reference-map marks a slot that
// holds a pointer.

#ifndef SRC_COMMON_BITMAP_H_
#define SRC_COMMON_BITMAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/perf_counters.h"

namespace bmx {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t nbits) : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  size_t size() const { return nbits_; }

  // Grows the array to at least `nbits` bits; the new bits are clear.  Lets a
  // sparse user pay for its highest set bit instead of a fixed size.
  void GrowTo(size_t nbits) {
    if (nbits > nbits_) {
      nbits_ = nbits;
      words_.resize((nbits + 63) / 64, 0);
    }
  }

  void Set(size_t i) {
    BMX_CHECK_LT(i, nbits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Clear(size_t i) {
    BMX_CHECK_LT(i, nbits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(size_t i) const {
    BMX_CHECK_LT(i, nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  size_t CountSet() const {
    size_t n = 0;
    for (uint64_t w : words_) {
      n += static_cast<size_t>(__builtin_popcountll(w));
    }
    return n;
  }

  // Raw word access for serialization (persistence of object/reference maps).
  const std::vector<uint64_t>& words() const { return words_; }
  void LoadWords(const std::vector<uint64_t>& words) {
    BMX_CHECK_EQ(words.size(), words_.size());
    words_ = words;
  }

  // Returns the index of the first set bit at or after `from`, or `size()` if
  // there is none.  Used to iterate objects in a segment via the object-map.
  size_t FindNextSet(size_t from) const {
    if (from >= nbits_) {
      return nbits_;
    }
    size_t word = from >> 6;
    uint64_t w = words_[word] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (w != 0) {
        size_t bit = (word << 6) + static_cast<size_t>(__builtin_ctzll(w));
        return bit < nbits_ ? bit : nbits_;
      }
      if (++word >= words_.size()) {
        return nbits_;
      }
      w = words_[word];
    }
  }

  // First set bit in [from, to), or `to` (clamped to size()) if none.  The
  // scan is word-at-a-time: an empty 64-slot run costs one load+test.
  size_t FindNextSetInRange(size_t from, size_t to) const {
    to = std::min(to, nbits_);
    size_t bit = FindNextSet(from);
    return bit < to ? bit : to;
  }

  // Word-level visit of every set bit in [from, to): one ctz loop per
  // non-empty word, one load per empty word.  Returns the number of all-zero
  // whole words skipped (the probes a bit-by-bit scan would have wasted).
  // Visitor signature: void(size_t bit).
  template <typename Fn>
  size_t ForEachSetInRange(size_t from, size_t to, Fn&& fn) const {
    to = std::min(to, nbits_);
    if (from >= to) {
      return 0;
    }
    size_t zero_words = 0;
    size_t word = from >> 6;
    const size_t last_word = (to - 1) >> 6;
    uint64_t w = words_[word] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (word == last_word) {
        const size_t tail = to & 63;
        if (tail != 0) {
          w &= ~uint64_t{0} >> (64 - tail);
        }
      }
      if (w == 0) {
        zero_words++;
      }
      while (w != 0) {
        const uint64_t low = w & (~w + 1);
        fn((word << 6) + static_cast<size_t>(__builtin_ctzll(w)));
        w ^= low;
      }
      if (word == last_word) {
        return zero_words;
      }
      w = words_[++word];
    }
  }

  template <typename Fn>
  size_t ForEachSet(Fn&& fn) const {
    return ForEachSetInRange(0, nbits_, static_cast<Fn&&>(fn));
  }

  // Masked AND-iteration over two equally sized bitmaps (e.g. object-map ∧
  // ref-map): visits bits set in *both*, word-at-a-time.  Returns the number
  // of whole words whose AND was zero.
  template <typename Fn>
  static size_t ForEachSetAndInRange(const Bitmap& a, const Bitmap& b, size_t from, size_t to,
                                     Fn&& fn) {
    BMX_CHECK_EQ(a.nbits_, b.nbits_);
    to = std::min(to, a.nbits_);
    if (from >= to) {
      return 0;
    }
    size_t zero_words = 0;
    size_t word = from >> 6;
    const size_t last_word = (to - 1) >> 6;
    uint64_t w = (a.words_[word] & b.words_[word]) & (~uint64_t{0} << (from & 63));
    while (true) {
      if (word == last_word) {
        const size_t tail = to & 63;
        if (tail != 0) {
          w &= ~uint64_t{0} >> (64 - tail);
        }
      }
      if (w == 0) {
        zero_words++;
      }
      while (w != 0) {
        const uint64_t low = w & (~w + 1);
        fn((word << 6) + static_cast<size_t>(__builtin_ctzll(w)));
        w ^= low;
      }
      if (word == last_word) {
        return zero_words;
      }
      ++word;
      w = a.words_[word] & b.words_[word];
    }
  }

  size_t CountSetInRange(size_t from, size_t to) const {
    size_t n = 0;
    ForEachSetInRange(from, to, [&n](size_t) { n++; });
    return n;
  }

 private:
  size_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace bmx

#endif  // SRC_COMMON_BITMAP_H_
