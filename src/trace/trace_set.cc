#include "trace/trace_set.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>

#include "trace/tail_trace.h"

namespace jig {

std::vector<ChannelShard> TraceSet::PartitionByChannel() {
  std::map<Channel, ChannelShard> by_channel;  // ordered by channel number
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Channel ch = streams_[i]->header().channel;
    auto [it, inserted] = by_channel.try_emplace(ch);
    if (inserted) it->second.channel = ch;
    it->second.traces.Add(std::move(streams_[i]));
    it->second.source_index.push_back(i);
  }
  streams_.clear();
  std::vector<ChannelShard> shards;
  shards.reserve(by_channel.size());
  for (auto& [ch, shard] : by_channel) shards.push_back(std::move(shard));
  return shards;
}

void TraceSet::AdoptShards(std::vector<ChannelShard> shards) {
  if (!streams_.empty()) {
    throw std::logic_error("AdoptShards: target TraceSet is not empty");
  }
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.traces.size();
  streams_.resize(total);
  for (auto& shard : shards) {
    for (std::size_t i = 0; i < shard.traces.size(); ++i) {
      const std::size_t at = shard.source_index[i];
      if (at >= total || streams_[at]) {
        throw std::logic_error("AdoptShards: inconsistent source indices");
      }
      streams_[at] = std::move(shard.traces.streams_[i]);
    }
  }
}

TraceSet TraceSet::OpenDirectory(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jigt") {
      paths.push_back(entry.path());
    }
  }
  std::vector<std::unique_ptr<RecordStream>> opened;
  opened.reserve(paths.size());
  for (const auto& p : paths) {
    opened.push_back(std::make_unique<FileTrace>(p));
  }
  std::sort(opened.begin(), opened.end(),
            [](const auto& a, const auto& b) {
              return a->header().radio < b->header().radio;
            });
  TraceSet set;
  for (auto& s : opened) set.Add(std::move(s));
  return set;
}

TraceSet TraceSet::FollowDirectory(const std::filesystem::path& dir,
                                   std::size_t expected_traces,
                                   std::chrono::milliseconds poll_interval,
                                   std::chrono::milliseconds timeout) {
  // Without an expected count, require the file count to hold still for a
  // whole settle period, not just one poll: capture daemons create their
  // files staggered, and locking onto a partial set would silently merge
  // without the late radios (the set cannot grow after this returns).
  constexpr int kSettlePolls = 10;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::size_t last_count = 0;
  int stable_polls = 0;
  for (;;) {
    // Re-attempt the whole directory each poll: a file whose header is
    // mid-write simply does not count yet.
    std::vector<std::unique_ptr<RecordStream>> opened;
    if (std::filesystem::exists(dir)) {
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".jigt") {
          continue;
        }
        if (auto tail = TailFileTrace::TryOpen(entry.path())) {
          opened.push_back(std::move(tail));
        }
      }
    }
    stable_polls = opened.size() == last_count ? stable_polls + 1 : 0;
    const bool ready =
        expected_traces != 0
            ? opened.size() >= expected_traces
            : !opened.empty() && stable_polls >= kSettlePolls;
    if (ready) {
      std::sort(opened.begin(), opened.end(),
                [](const auto& a, const auto& b) {
                  return a->header().radio < b->header().radio;
                });
      TraceSet set;
      for (auto& s : opened) set.Add(std::move(s));
      return set;
    }
    last_count = opened.size();
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error(
          "FollowDirectory: timed out waiting for traces in " + dir.string());
    }
    std::this_thread::sleep_for(poll_interval);
  }
}

std::vector<std::filesystem::path> TraceSet::WriteDirectory(
    const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> paths;
  paths.reserve(streams_.size());
  for (auto& stream : streams_) {
    stream->Rewind();
    // Built with += (not operator+ on a temporary) to sidestep the gcc 12
    // -Wrestrict false positive on "literal" + std::to_string(...) chains.
    std::string name = "r";
    name += std::to_string(stream->header().radio);
    name += ".jigt";
    const auto path = dir / name;
    TraceFileWriter writer(path, stream->header());
    while (auto rec = stream->Next()) writer.Append(*rec);
    writer.Finish();
    stream->Rewind();
    paths.push_back(path);
  }
  return paths;
}

}  // namespace jig
