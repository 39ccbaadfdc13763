#include "sim/shard.hh"

#include "common/env.hh"

namespace rsep::sim
{

u64
cellIdentityHash(const std::string &benchmark,
                 const std::string &config_hash)
{
    // FNV-1a 64 over "benchmark NUL config_hash". The NUL separator
    // keeps ("ab", "c") and ("a", "bc") distinct.
    u64 h = 0xcbf29ce484222325ull;
    auto mix = [&](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        h *= 0x100000001b3ull; // NUL terminator (h ^= 0 is a no-op).
    };
    mix(benchmark);
    mix(config_hash);
    return h;
}

unsigned
shardOf(const std::string &benchmark, const std::string &config_hash,
        unsigned shard_count)
{
    if (shard_count <= 1)
        return 0;
    // FNV-1a's low bits depend only on the low bits of the input bytes,
    // so a power-of-two count would split by a few character parities.
    // The murmur3 finalizer spreads every input bit over the low ones.
    u64 h = cellIdentityHash(benchmark, config_hash);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<unsigned>(h % shard_count);
}

bool
parseShardValue(const std::string &s, ShardSpec &shard, std::string &err)
{
    size_t slash = s.find('/');
    if (slash == std::string::npos) {
        err = "invalid shard spec '" + s + "' (expected INDEX/COUNT, "
              "e.g. 0/4)";
        return false;
    }
    u64 index = 0, count = 0;
    if (!parseU64(s.substr(0, slash), index) ||
        !parseU64(s.substr(slash + 1), count)) {
        err = "invalid shard spec '" + s +
              "' (INDEX and COUNT must be unsigned integers)";
        return false;
    }
    if (count == 0) {
        err = "invalid shard spec '" + s + "' (COUNT must be >= 1)";
        return false;
    }
    if (count > maxShards) {
        err = "shard count '" + s + "' exceeds the ceiling of " +
              std::to_string(maxShards);
        return false;
    }
    if (index >= count) {
        err = "invalid shard spec '" + s +
              "' (INDEX is 0-based and must be < COUNT)";
        return false;
    }
    shard.index = static_cast<unsigned>(index);
    shard.count = static_cast<unsigned>(count);
    return true;
}

} // namespace rsep::sim
