#include "arch/crossbar.h"

namespace compass::arch {

void Crossbar::assign_rows(
    const std::array<util::Bits256, kAxonsPerCore>& rows) noexcept {
  static_assert(kAxonsPerCore == 256 && kNeuronsPerCore == 256,
                "the block transpose assumes a 256x256 crossbar");
  rows_ = rows;
  std::int64_t count = 0;
  for (const util::Bits256& r : rows_) count += r.popcount();
  count_ = count;
  // Block (rb, cb) holds axons [64rb, 64rb+64) x neurons [64cb, 64cb+64):
  // word cb of those rows, transposed, is word rb of those columns.
  std::array<std::uint64_t, 64> block{};
  for (unsigned rb = 0; rb < 4; ++rb) {
    for (unsigned cb = 0; cb < 4; ++cb) {
      for (unsigned i = 0; i < 64; ++i) block[i] = rows_[rb * 64 + i].w[cb];
      util::transpose64(block);
      for (unsigned j = 0; j < 64; ++j) cols_[cb * 64 + j].w[rb] = block[j];
    }
  }
}

}  // namespace compass::arch
