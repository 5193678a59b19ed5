// Fuzz harness for the LZ block decoder (src/util/compression.h).
//
// Invariant under test: for ANY input bytes, LzDecompress either returns a
// decoded buffer or throws exactly the documented taxonomy (LzError:
// LzTruncatedError / LzCorruptError).  Anything else — a crash, a hang, an
// OOM from a hostile declared size, or a different exception type — is a
// bug.  The decoder must also agree with the byte-at-a-time reference
// decoder (tests/lz_reference.h): the same bytes, or the same error class.
// On success, a compress→decompress round trip of the decoded bytes must
// reproduce them exactly.
#include <cstddef>
#include <cstdint>
#include <span>

#include "lz_reference.h"
#include "util/compression.h"

#include "standalone_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  const auto got = jig::testing::DecodeOutcome(
      [](std::span<const std::uint8_t> in) { return jig::LzDecompress(in); },
      input);
  const auto want =
      jig::testing::DecodeOutcome(jig::testing::LzDecompressReference, input);
  if (!(got == want)) __builtin_trap();
  if (got.error == 0) {
    // Decoded OK: the codec must round-trip its own output.
    const auto repacked = jig::LzCompress(got.bytes);
    const auto again = jig::LzDecompress(repacked);
    if (again != got.bytes) __builtin_trap();
  }
  return 0;
}
