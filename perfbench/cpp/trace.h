// In-memory span log of the traced benchmark run. The benchmark opens a
// span around each call it makes into a simulator module (the layer), so
// the spans are recorded from the benchmark's own code; nothing inside
// the simulator is instrumented. Each thread appends to its own log, so
// pooled lanes never share a buffer; the logs are summarized and written
// out once the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// The layers spans can name (module.stage, as in the simulator's tree).
enum class layer : std::uint8_t {
  trial,                ///< sim.trial: one Monte-Carlo trial (op root)
  excitation,           ///< reader.excitation: build_excitation_into
  channel_forward,      ///< channel.forward: draw channels + apply h_f
  wake,                 ///< tag.wake: detect_wake
  modulate,             ///< tag.modulate: payload bits + backscatter_into
  impair,               ///< impair: impairment_plan::apply_*
  channel_backscatter,  ///< channel.backscatter: h_env, hadamard, h_b, add
  awgn,                 ///< channel.awgn: add_awgn
  packet,               ///< reader.packet: one received packet (chain+decode)
  receive_chain,        ///< fd.receive_chain: run_receive_chain
  decode,               ///< reader.decode: decoder set-up + decode
  slicer,               ///< reader.slicer: raw symbol-error count
  oracle,               ///< sim.oracle: oracle_post_mrc_snr_db
};
inline constexpr std::size_t layer_count = 13;

/// Span/metric name of a layer, e.g. "channel.awgn".
const char* layer_name(layer l);

/// One recorded span. Times are steady_clock nanoseconds; parent indexes
/// the same thread's log (-1 for an op root); op groups the spans of one
/// operation (trial or packet).
struct span {
  layer name = layer::trial;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans of one thread, with the stack of currently open spans.
class span_log {
 public:
  /// Open a span now, as a child of the innermost open span; returns its
  /// index for close().
  std::size_t open(layer name, std::uint64_t op);
  /// Close the span `index` now, together with any span opened inside it
  /// that is still open.
  void close(std::size_t index);

  const std::vector<span>& spans() const { return spans_; }

 private:
  std::vector<span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span on a nullable log (null: nothing is recorded or timed).
class scoped_span {
 public:
  scoped_span(span_log* log, layer name, std::uint64_t op)
      : log_(log), index_(log ? log->open(name, op) : 0) {}
  ~scoped_span() { stop(); }
  void stop() {
    if (log_) log_->close(index_);
    log_ = nullptr;
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_log* log_;
  std::size_t index_;
};

/// Owner of every thread's span log for one traced run.
class tracer {
 public:
  /// The calling thread's log (created on first use).
  span_log& local();
  /// Every log created so far (call when no lane is running).
  std::vector<const span_log*> logs() const;
  /// Write all spans as CSV (thread,op,name,parent,start_ns,end_ns) after
  /// the `header` comment lines. Returns false when the file can't be written.
  bool write_csv(const std::string& path, const std::string& header) const;

 private:
  mutable std::mutex mutex_;
  std::deque<span_log> logs_;
  std::map<std::thread::id, span_log*> by_thread_;
};

/// Per-layer accounting derived from the spans.
struct layer_totals {
  /// Self time per layer [ns]: each span's duration minus the time its
  /// direct children cover.
  double self_ns[layer_count] = {};
  std::uint64_t calls[layer_count] = {};
  double root_ns = 0.0;       ///< summed duration of the op-root spans
  double root_self_ns = 0.0;  ///< the part of it no child span covers
  std::uint64_t roots = 0;    ///< op-root spans (operations)
  /// Durations of every span of `layer::trial` and `layer::packet` [ns].
  std::vector<double> trial_ns;
  std::vector<double> packet_ns;

  /// Share of the op-root time that named layers account for.
  double coverage() const {
    return root_ns > 0.0 ? 1.0 - root_self_ns / root_ns : 0.0;
  }
};

/// Fold one thread's spans into `totals`. Spans must list parents before
/// their children (as span_log records them); a parent index that does not
/// point to an earlier span throws std::invalid_argument.
void accumulate(layer_totals& totals, const std::vector<span>& spans);

/// accumulate() over every log.
layer_totals summarize(const std::vector<const span_log*>& logs);

}  // namespace perfbench
