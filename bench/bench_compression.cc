// Ablation for paper §6.2: dictionary and frame-of-reference compression
// ratios on micro-benchmark data and TPC-H-like data (paper: 2.5x micro,
// 4.5x TPC-H), plus the partitioning/compression synergy — finer partitions
// over hot ranges shrink per-frame value spans and therefore bit widths.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "util/stopwatch.h"
#include "workload/tpch.h"

namespace casper::bench {
namespace {

/// Best-of-`reps` wall time for `fn`, reported as Mrows/s over `rows`.
template <typename Fn>
double BestMrps(size_t rows, size_t reps, Fn&& fn) {
  double best_ns = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best_ns = std::min(best_ns, static_cast<double>(sw.ElapsedNanos()));
  }
  return static_cast<double>(rows) * 1e3 / best_ns;
}

int Main() {
  PrintHeader("§6.2 ablation", "compression ratios & partitioning synergy");
  const size_t rows = ScaledRows(1 << 20);
  JsonMetrics metrics;

  {
    std::printf("\n-- micro-benchmark data (HAP: uniform keys + small-domain "
                "payloads) --\n");
    Rng rng(5);
    auto ds = hap::MakeDataset(rows, 2, rng);
    std::sort(ds.keys.begin(), ds.keys.end());
    FrameOfReferenceColumn keys_for(ds.keys, size_t{2048});
    const auto pay_dict =
        PackedPayloadColumn::Encode(ds.payload[0], PayloadEncoding::kDictionary);
    const double key_ratio = keys_for.CompressionRatio();
    // Payload columns are 4-byte in the HAP schema; ratio vs 32 bits.
    const double pay_ratio =
        32.0 / std::max(1u, pay_dict->bit_width());
    std::printf("  key column, FOR frames=2048:    %4.2fx (%.1f bits/value)\n",
                key_ratio, keys_for.MeanBitsPerValue());
    std::printf("  payload column, dictionary:     %4.2fx (%u bits/code, %zu "
                "distinct)\n",
                pay_ratio, pay_dict->bit_width(), pay_dict->dictionary_size());
    const double combined =
        (8 + 4 + 4) / (8 / key_ratio + 4 / pay_ratio + 4 / pay_ratio);
    std::printf("  combined (1 key + 2 payloads):  %4.2fx   (paper: ~2.5x)\n",
                combined);
    metrics.Add("micro_key_for_ratio", key_ratio);
    metrics.Add("micro_payload_dict_ratio", pay_ratio);
    metrics.Add("micro_combined_ratio", combined);

    // Encode / decode throughput of the packed payload column a chunk file
    // stores — same data, both codecs.
    std::printf("\n-- packed payload column throughput (Mrows/s, best-of) --\n");
    const size_t reps = SmokeMode() ? 5 : 11;
    for (const auto enc : {PayloadEncoding::kFrameOfReference,
                           PayloadEncoding::kDictionary}) {
      const char* name =
          enc == PayloadEncoding::kDictionary ? "dictionary" : "for";
      std::shared_ptr<const PackedPayloadColumn> col;
      const double encode_mrps = BestMrps(ds.payload[0].size(), reps, [&] {
        col = PackedPayloadColumn::Encode(ds.payload[0], enc);
      });
      std::vector<Payload> decoded;
      const double decode_mrps = BestMrps(ds.payload[0].size(), reps, [&] {
        decoded = col->DecodeAll();
      });
      if (decoded != ds.payload[0]) {
        std::fprintf(stderr, "%s round-trip mismatch!\n", name);
        return 1;
      }
      std::printf("  %-10s encode %8.1f   decode %8.1f   (%.1f bits/value)\n",
                  name, encode_mrps, decode_mrps, col->MeanBitsPerValue());
      metrics.Add(std::string("packed_") + name + "_encode_mrps", encode_mrps);
      metrics.Add(std::string("packed_") + name + "_decode_mrps", decode_mrps);
      metrics.Add(std::string("packed_") + name + "_mean_bits",
                  col->MeanBitsPerValue());
    }
  }

  {
    std::printf("\n-- TPC-H-like lineitem --\n");
    Rng rng(6);
    auto t = tpch::MakeLineitem(rows, rng);
    std::sort(t.shipdate.begin(), t.shipdate.end());
    FrameOfReferenceColumn dates(t.shipdate, size_t{2048});
    const auto qty_d =
        PackedPayloadColumn::Encode(t.payload[0], PayloadEncoding::kDictionary);
    const auto disc_d =
        PackedPayloadColumn::Encode(t.payload[1], PayloadEncoding::kDictionary);
    std::vector<Value> price(t.payload[2].begin(), t.payload[2].end());
    FrameOfReferenceColumn price_f(price, size_t{2048});
    const double date_r = dates.CompressionRatio();
    const double qty_r = 32.0 / std::max(1u, qty_d->bit_width());
    const double disc_r = 32.0 / std::max(1u, disc_d->bit_width());
    const double price_r =
        32.0 / std::max(1.0, price_f.MeanBitsPerValue());
    std::printf("  shipdate FOR: %4.2fx  quantity dict: %4.2fx  discount dict: "
                "%4.2fx  price FOR: %4.2fx\n",
                date_r, qty_r, disc_r, price_r);
    const double combined = (8 + 4 + 4 + 4) / (8 / date_r + 4 / qty_r +
                                               4 / disc_r + 4 / price_r);
    std::printf("  combined row:                   %4.2fx   (paper: ~4.5x)\n",
                combined);
    metrics.Add("tpch_shipdate_for_ratio", date_r);
    metrics.Add("tpch_quantity_dict_ratio", qty_r);
    metrics.Add("tpch_discount_dict_ratio", disc_r);
    metrics.Add("tpch_price_for_ratio", price_r);
    metrics.Add("tpch_combined_ratio", combined);
  }

  {
    std::printf("\n-- partitioning/compression synergy (sorted key column) --\n");
    Rng rng(7);
    std::vector<Value> keys;
    keys.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      keys.push_back(static_cast<Value>(rng.Below(rows * 4)));
    }
    std::sort(keys.begin(), keys.end());
    std::printf("%16s %18s %14s\n", "#partitions", "bits/value (FOR)", "ratio");
    for (size_t parts : {1u, 16u, 64u, 256u, 1024u}) {
      FrameOfReferenceColumn col(keys, keys.size() / parts);
      std::printf("%16zu %18.2f %13.2fx\n", parts, col.MeanBitsPerValue(),
                  col.CompressionRatio());
      metrics.Add("synergy_bits_parts_" + std::to_string(parts),
                  col.MeanBitsPerValue());
    }
    std::printf("(finer partitions => smaller frame ranges => fewer bits; "
                "Casper's hot-range\n fine partitioning compounds with delta "
                "compression exactly this way)\n");
  }
  metrics.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace casper::bench

int main() { return casper::bench::Main(); }
