// Cycle-stamped crash-forensics trace layer.
//
// A TraceBuffer is a bounded ring of machine events — trap entry/exit
// with the frame essentials, memory faults, injection trigger and
// flip, checkpoint-rung restores, block-cache invalidations, shard
// grants and steals — recorded by the substrate (Machine, Cpu,
// Injector, run_campaign's drain) whenever a sink is attached.  It is the
// machine-checkable replacement for reading LKCD crash dumps by hand:
// the paper's Figure 7 latencies, Figure 8 propagation graphs, and the
// Table 5/7 case-study timelines all fall out of one recorded run.
//
// Design contract: recording is strictly observational.  No guest
// cycle, register, RAM byte, or run-visible outcome may depend on
// whether a sink is attached — the campaign result digest is required
// (and CI-gated) to be bit-identical with tracing on and off.  To keep
// that property trivially auditable, events carry the guest cycle they
// were observed at plus four opaque payload words; nothing in the
// buffer is ever read back by execution code.
//
// The ring is bounded: when full, the *oldest* event is overwritten
// (and counted as dropped), because forensics cares about the end of
// the story — the window leading up to the trap.  Lifetime counters
// (total recorded / dropped) survive clear(), so per-injection reuse
// of one buffer still aggregates into campaign-wide telemetry.
//
// Thread safety: all members are internally locked.  One buffer may be
// shared between a worker's machines and the campaign drain; the lock
// is uncontended in the common single-owner case.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kfi::trace {

enum class EventKind : std::uint8_t {
  RunBegin,           // a=resumable flag
  RunEnd,             // a=RunExit, b=exit code / breakpoint index
  TrapEntry,          // a=trap, b=error code, c=faulting eip, d=fault addr
  TrapExit,           // a=return eip, b=return cpl
  MemFault,           // a=trap (#PF/#GP), b=error code, c=eip, d=fault addr
  TimerIrq,           // a=vector
  InjectTrigger,      // a=target instruction address
  InjectFlip,         // a=addr, b=byte<<8|bit, c=byte before, d=byte after
  SnapshotRestore,    // a=boot snapshot cycle (low 32); post-boot restore
  CheckpointRestore,  // a=rung cycle (low 32); cycle = rung cycle
  Reconverged,        // a=rung index, b=1 onto a shadow rung, else golden
  BlockInvalidate,    // a=paddr, b=blocks dropped from the trace cache
  CrashReport,        // a=cause code, b=fault addr, c=eip (the oops)
  ChunkRun,           // a=worker, b=shard begin, c=shard end
  ChunkSteal,         // a=thief, b=owner, c=shard begin, d=shard end
};

std::string_view event_name(EventKind kind);

struct Event {
  EventKind kind = EventKind::RunBegin;
  std::uint64_t cycle = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t d = 0;
};

class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  void record(EventKind kind, std::uint64_t cycle, std::uint32_t a = 0,
              std::uint32_t b = 0, std::uint32_t c = 0, std::uint32_t d = 0);

  // Drops the ring contents (a new per-injection window) but keeps the
  // lifetime recorded/dropped totals.
  void clear();

  // Oldest-first copy of the current window.
  std::vector<Event> events() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

  // Lifetime totals across every clear(): events recorded, and events
  // lost to ring overwrite.
  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Event> ring_;   // capacity_ slots once full
  std::size_t head_ = 0;      // next write position (when ring_ is full)
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

// Maps an instruction address to a human label ("kfs_read_inode+0x12
// (fs)"); empty result = print the bare hex address.  Supplied by the
// caller so the trace layer stays below the kernel-image layer.
using SymbolResolver = std::function<std::string(std::uint32_t addr)>;

// One JSON object per line, schema:
//   {"seq":N,"cycle":C,"event":"trap_entry","a":..,"b":..,"c":..,"d":..,
//    "sym":"function+0x12 (fs)"}       (sym only when a resolver hits)
std::string to_jsonl(const std::vector<Event>& events,
                     const SymbolResolver& resolve = nullptr);

// Writes to_jsonl() to `path`, checking every stream operation; on any
// failure the partial file is removed and false returned.
bool write_jsonl(const std::vector<Event>& events, const std::string& path,
                 const SymbolResolver& resolve = nullptr);

// Table 5-style forensics timeline: one line per event with the cycle,
// the delta since the injection trigger (once seen), and a rendered
// description.  `resolve` labels instruction addresses.
std::string render_timeline(const std::vector<Event>& events,
                            const SymbolResolver& resolve = nullptr);

}  // namespace kfi::trace
