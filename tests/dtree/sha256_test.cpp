// SHA-256 (FIPS 180-4): the published vectors on both compression paths
// — the portable rounds and the CPU-dispatched path, which runs on the x86
// SHA extensions where the CPU has them — and agreement of the two on
// every length that exercises the padding, read from an unaligned start.
#include "dtree/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pdt::dtree {
namespace {

std::string hex(const std::array<std::uint8_t, 32>& raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : raw) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

struct Vector {
  std::string message;
  const char* digest;
};

TEST(Sha256, Fips180Vectors) {
  const std::vector<Vector> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      // Tail spanning two final blocks (len 56..63 needs a second pad
      // block).
      {std::string(56, 'a'),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(sha256_hex(v.message), v.digest) << v.message.size() << " bytes";
    EXPECT_EQ(hex(sha256(v.message)), v.digest) << v.message.size();
    EXPECT_EQ(hex(sha256_portable(v.message)), v.digest) << v.message.size();
  }
}

TEST(Sha256, DispatchedPathMatchesPortableOnEveryLength) {
  RecordProperty("sha_ni", sha256_uses_sha_ni() ? "yes" : "no");
  // Lengths 0..1024 put the tail at every offset of a block (one and two
  // pad blocks) behind up to 16 full blocks; starting one byte into the
  // buffer makes every block load unaligned.
  std::string buf(1 + 1024, '\0');
  std::uint32_t x = 12345;
  for (char& c : buf) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  for (std::size_t n = 0; n <= 1024; ++n) {
    const std::string_view msg(buf.data() + 1, n);
    ASSERT_EQ(sha256(msg), sha256_portable(msg)) << n << " bytes";
  }
}

}  // namespace
}  // namespace pdt::dtree
