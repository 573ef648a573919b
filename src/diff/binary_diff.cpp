#include "diff/binary_diff.h"

#include <algorithm>
#include <array>
#include <vector>

namespace rockfs::diff {

namespace {

// Opcode stream format (all integers big-endian):
//   0x01 COPY   u64 old_offset, u64 length
//   0x02 INSERT lp bytes
constexpr Byte kOpCopy = 0x01;
constexpr Byte kOpInsert = 0x02;

// Adler-32-style weak rolling checksum over a fixed window length. Sums stay
// reduced mod kMod by conditional subtraction; rolling a byte out removes its
// len * out contribution to `b`, precomputed per byte value.
class RollingHash {
 public:
  static constexpr std::uint32_t kMod = 65521;

  explicit RollingHash(std::size_t len) {
    const std::uint32_t len_mod = static_cast<std::uint32_t>(len % kMod);
    for (std::uint32_t x = 0; x < 256; ++x) drop_[x] = len_mod * x % kMod;
  }

  // a = sum x_i and b = sum (len - i) * x_i, summed wide and reduced once.
  void init(BytesView window) {
    std::uint64_t a = 0, b = 0;
    const std::size_t len = window.size();
    for (std::size_t i = 0; i < len; ++i) {
      a += window[i];
      b += static_cast<std::uint64_t>(len - i) * window[i];
    }
    a_ = static_cast<std::uint32_t>(a % kMod);
    b_ = static_cast<std::uint32_t>(b % kMod);
  }
  void roll(Byte out, Byte in) {
    a_ = reduce(reduce(a_ + in) + kMod - out);
    b_ = reduce(reduce(b_ + kMod - drop_[out]) + a_);
  }
  std::uint32_t digest() const { return (b_ << 16) | a_; }

 private:
  // x < 2 * kMod.
  static std::uint32_t reduce(std::uint32_t x) { return x >= kMod ? x - kMod : x; }

  std::uint32_t a_ = 0;
  std::uint32_t b_ = 0;
  std::uint32_t drop_[256];
};

// Old blocks by weak hash: a flat open-addressed table with linear probing,
// at most half full. Blocks go in from the highest offset down, and linear
// probing keeps equal keys in insertion order, so a lookup meets byte-equal
// blocks highest offset first. That is the order the std::unordered_multimap
// this replaced returned them in (libstdc++ lists equal keys newest first),
// and the recorded delta digests pin it.
class BlockIndex {
 public:
  BlockIndex(BytesView old_data, std::size_t block_size) {
    const std::size_t blocks = old_data.size() / block_size;
    std::size_t capacity = 16;
    while (capacity < 2 * blocks) capacity *= 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    RollingHash rh(block_size);
    for (std::size_t b = blocks; b-- > 0;) {
      rh.init(old_data.subspan(b * block_size, block_size));
      const std::uint64_t h = mix(rh.digest());
      present_[h >> 54] |= std::uint64_t{1} << ((h >> 48) & 63);
      std::size_t i = static_cast<std::size_t>(h >> shift_);
      while (slots_[i].offset != kEmpty) i = (i + 1) & mask_;
      slots_[i] = {rh.digest(), b * block_size};
    }
  }

  /// The first block (in the order above) with this weak hash that
  /// `matches` accepts, or kEmpty.
  template <typename Matches>
  std::size_t find(std::uint32_t digest, Matches matches) const {
    const std::uint64_t h = mix(digest);
    if ((present_[h >> 54] >> ((h >> 48) & 63) & 1) == 0) return kEmpty;
    for (std::size_t i = static_cast<std::size_t>(h >> shift_);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.offset == kEmpty) return kEmpty;
      if (slot.digest == digest && matches(slot.offset)) return slot.offset;
    }
  }

  static constexpr std::size_t kEmpty = SIZE_MAX;

 private:
  struct Slot {
    std::uint32_t digest = 0;
    std::size_t offset = kEmpty;
  };

  // Fibonacci hashing: the weak hash's low bits alone cluster. The top bits
  // pick the home slot; bits 48..63 also pick a bit of `present_`.
  static std::uint64_t mix(std::uint32_t digest) { return digest * 0x9E3779B97F4A7C15ULL; }

  // One bit per 16-bit hash prefix (8 KiB), set for every stored block: most windows
  // of a rewritten region miss here, in L1, without touching `slots_` (where
  // an empty-or-not branch at half load would mispredict every other byte).
  std::array<std::uint64_t, 1024> present_{};
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

std::size_t pick_block_size(std::size_t old_size) {
  if (old_size < 4096) return std::max<std::size_t>(old_size / 4, 16);
  if (old_size < (1u << 20)) return 1024;
  return 4096;
}

void emit_copy(Bytes& out, std::uint64_t offset, std::uint64_t length) {
  out.push_back(kOpCopy);
  append_u64(out, offset);
  append_u64(out, length);
}

void emit_insert(Bytes& out, BytesView literal) {
  if (literal.empty()) return;
  out.push_back(kOpInsert);
  append_lp(out, literal);
}

}  // namespace

Bytes encode(BytesView old_data, BytesView new_data, std::size_t block_size) {
  Bytes out;
  if (old_data.empty() || new_data.empty()) {
    emit_insert(out, new_data);
    return out;
  }
  const std::size_t bs = block_size != 0 ? block_size : pick_block_size(old_data.size());

  // A weak hit is confirmed by comparing the bytes, so no strong hash is needed.
  const BlockIndex index(old_data, bs);
  RollingHash rh(bs);

  std::size_t pos = 0;
  // The pending literal is always the run new_data[literal_start, pos).
  std::size_t literal_start = 0;
  // Coalesced COPY state.
  bool copy_open = false;
  std::uint64_t copy_off = 0, copy_len = 0;

  auto flush_copy = [&] {
    if (copy_open) {
      emit_copy(out, copy_off, copy_len);
      copy_open = false;
    }
  };
  auto flush_literal = [&] {
    flush_copy();
    emit_insert(out, new_data.subspan(literal_start, pos - literal_start));
  };

  bool rh_valid = false;
  while (pos < new_data.size()) {
    if (pos + bs > new_data.size()) {
      // Tail shorter than a block: emit as literal.
      flush_copy();
      pos = new_data.size();
      break;
    }
    if (!rh_valid) {
      rh.init(new_data.subspan(pos, bs));
      rh_valid = true;
    }
    // Look up the window.
    const std::size_t match_off = index.find(rh.digest(), [&](std::size_t off) {
      return std::equal(new_data.begin() + static_cast<std::ptrdiff_t>(pos),
                        new_data.begin() + static_cast<std::ptrdiff_t>(pos + bs),
                        old_data.begin() + static_cast<std::ptrdiff_t>(off));
    });
    if (match_off != BlockIndex::kEmpty) {
      if (literal_start != pos) flush_literal();
      // Extend an open COPY when contiguous.
      if (copy_open && copy_off + copy_len == match_off) {
        copy_len += bs;
      } else {
        flush_copy();
        copy_open = true;
        copy_off = match_off;
        copy_len = bs;
      }
      pos += bs;
      literal_start = pos;
      rh_valid = false;
    } else {
      flush_copy();
      if (pos + bs < new_data.size()) {
        rh.roll(new_data[pos], new_data[pos + bs]);
      } else {
        rh_valid = false;
      }
      ++pos;
    }
  }
  flush_literal();
  return out;
}

Result<Bytes> patch(BytesView old_data, BytesView delta) {
  Bytes out;
  std::size_t off = 0;
  try {
    while (off < delta.size()) {
      const Byte op = delta[off++];
      if (op == kOpCopy) {
        const std::uint64_t src = read_u64(delta, off);
        const std::uint64_t len = read_u64(delta, off + 8);
        off += 16;
        if (src + len > old_data.size() || src + len < src) {
          return Error{ErrorCode::kCorrupted, "patch: copy out of range"};
        }
        append(out, old_data.subspan(src, len));
      } else if (op == kOpInsert) {
        const Bytes literal = read_lp(delta, &off);
        append(out, literal);
      } else {
        return Error{ErrorCode::kCorrupted, "patch: unknown opcode"};
      }
    }
  } catch (const std::out_of_range&) {
    return Error{ErrorCode::kCorrupted, "patch: truncated delta"};
  }
  return out;
}

Bytes LogDelta::serialize() const {
  Bytes out;
  out.push_back(whole_file ? 1 : 0);
  append(out, payload);
  return out;
}

Result<LogDelta> LogDelta::deserialize(BytesView b) {
  if (b.empty()) return Error{ErrorCode::kCorrupted, "log delta: empty"};
  if (b[0] > 1) return Error{ErrorCode::kCorrupted, "log delta: bad flag"};
  LogDelta d;
  d.whole_file = b[0] == 1;
  d.payload.assign(b.begin() + 1, b.end());
  return d;
}

LogDelta make_log_delta(BytesView old_data, BytesView new_data) {
  LogDelta d;
  Bytes delta = encode(old_data, new_data);
  if (delta.size() < new_data.size()) {
    d.whole_file = false;
    d.payload = std::move(delta);
  } else {
    d.whole_file = true;
    d.payload.assign(new_data.begin(), new_data.end());
  }
  return d;
}

Result<Bytes> apply_log_delta(BytesView old_data, const LogDelta& delta) {
  if (delta.whole_file) return Bytes(delta.payload);
  return patch(old_data, delta.payload);
}

}  // namespace rockfs::diff
