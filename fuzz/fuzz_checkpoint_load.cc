// Fuzz harness for the .jigc checkpoint loader (src/jigsaw/service.h).
//
// Invariant under test: for ANY file contents, LoadCheckpoint either
// returns a checkpoint or throws exactly the documented taxonomy
// (TraceError subtypes) — never a crash, an out-of-taxonomy exception, or
// an allocation sized by a count the file declares.
//
// The loader rejects any file whose CRC-32 trailer does not match, so raw
// mutations would almost never get past it.  The harness therefore drives
// each input twice: verbatim (the CRC gate itself) and with the trailer
// rewritten to the CRC of the mutated body, so mutations reach the parser.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "jigsaw/service.h"
#include "trace/trace_file.h"
#include "util/crc32.h"

#include "standalone_driver.h"

namespace {

const std::filesystem::path& ScratchPath() {
  static const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("jig_fuzz_checkpoint_" + std::to_string(::getpid()) + ".jigc");
  return path;
}

void Drive(const std::vector<std::uint8_t>& bytes) {
  const auto& path = ScratchPath();
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)jig::LoadCheckpoint(path);
  } catch (const jig::TraceError&) {
    // Documented taxonomy — expected for malformed input.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::vector<std::uint8_t> bytes(data, data + size);
  Drive(bytes);
  if (bytes.size() >= 4) {
    const std::uint32_t crc = jig::Crc32({bytes.data(), bytes.size() - 4});
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    Drive(bytes);
  }
  return 0;
}
