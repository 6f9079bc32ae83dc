#include "trace/trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/strings.h"

namespace kfi::trace {

std::string_view event_name(EventKind kind) {
  switch (kind) {
    case EventKind::RunBegin: return "run_begin";
    case EventKind::RunEnd: return "run_end";
    case EventKind::TrapEntry: return "trap_entry";
    case EventKind::TrapExit: return "trap_exit";
    case EventKind::MemFault: return "mem_fault";
    case EventKind::TimerIrq: return "timer_irq";
    case EventKind::InjectTrigger: return "inject_trigger";
    case EventKind::InjectFlip: return "inject_flip";
    case EventKind::SnapshotRestore: return "snapshot_restore";
    case EventKind::CheckpointRestore: return "checkpoint_restore";
    case EventKind::Reconverged: return "reconverged";
    case EventKind::BlockInvalidate: return "block_invalidate";
    case EventKind::CrashReport: return "crash_report";
    case EventKind::ChunkRun: return "chunk_run";
    case EventKind::ChunkSteal: return "chunk_steal";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_ < 64 ? capacity_ : 64);
}

void TraceBuffer::record(EventKind kind, std::uint64_t cycle, std::uint32_t a,
                         std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  const Event event{kind, cycle, a, b, c, d};
  const std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest slot; head_ points at it.
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TraceBuffer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
}

std::vector<Event> TraceBuffer::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t TraceBuffer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t TraceBuffer::total_recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t TraceBuffer::total_dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

namespace {

// The payload word that holds an instruction address worth symbolizing,
// or 0 when the event has none.
std::uint32_t symbol_addr(const Event& event) {
  switch (event.kind) {
    case EventKind::TrapEntry:
    case EventKind::MemFault:
    case EventKind::CrashReport: return event.c;
    case EventKind::TrapExit: return event.a;
    case EventKind::InjectTrigger:
    case EventKind::InjectFlip: return event.a;
    default: return 0;
  }
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += format("\\u%04x", static_cast<unsigned>(ch));
    } else {
      out.push_back(ch);
    }
  }
}

}  // namespace

std::string to_jsonl(const std::vector<Event>& events,
                     const SymbolResolver& resolve) {
  std::string out;
  std::size_t seq = 0;
  for (const Event& event : events) {
    out += format("{\"seq\":%zu,\"cycle\":%llu,\"event\":\"%s\","
                  "\"a\":%u,\"b\":%u,\"c\":%u,\"d\":%u",
                  seq++, static_cast<unsigned long long>(event.cycle),
                  std::string(event_name(event.kind)).c_str(), event.a,
                  event.b, event.c, event.d);
    const std::uint32_t addr = symbol_addr(event);
    if (resolve != nullptr && addr != 0) {
      const std::string sym = resolve(addr);
      if (!sym.empty()) {
        out += ",\"sym\":\"";
        append_json_escaped(out, sym);
        out.push_back('"');
      }
    }
    out += "}\n";
  }
  return out;
}

bool write_jsonl(const std::vector<Event>& events, const std::string& path,
                 const SymbolResolver& resolve) {
  const std::string text = to_jsonl(events, resolve);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.flush();
  if (!file.good()) {
    file.close();
    std::error_code ec;
    std::filesystem::remove(path, ec);  // never cache a truncated trace
    return false;
  }
  return true;
}

namespace {

std::string label_addr(std::uint32_t addr, const SymbolResolver& resolve) {
  if (resolve != nullptr) {
    const std::string sym = resolve(addr);
    if (!sym.empty()) return sym + " (" + hex32(addr) + ")";
  }
  return hex32(addr);
}

std::string describe(const Event& event, const SymbolResolver& resolve) {
  switch (event.kind) {
    case EventKind::RunBegin: return "run begins";
    case EventKind::RunEnd:
      return format("run ends (exit %u, code %u)", event.a, event.b);
    case EventKind::TrapEntry:
      return format("trap %u at eip ", event.a) + label_addr(event.c, resolve);
    case EventKind::TrapExit:
      return "trap returns to " + label_addr(event.a, resolve) +
             format(" (cpl %u)", event.b);
    case EventKind::MemFault:
      return format("memory fault (trap %u, err %u) at address ", event.a,
                    event.b) +
             hex32(event.d) + ", eip " + label_addr(event.c, resolve);
    case EventKind::TimerIrq: return "timer interrupt delivered";
    case EventKind::InjectTrigger:
      return "TRIGGER: breakpoint on target " + label_addr(event.a, resolve);
    case EventKind::InjectFlip:
      return "FLIP: byte " + std::to_string(event.b >> 8) + " bit " +
             std::to_string(event.b & 0xFF) +
             format(": %02x -> %02x at ", event.c, event.d) +
             label_addr(event.a, resolve);
    case EventKind::SnapshotRestore: return "post-boot snapshot restored";
    case EventKind::CheckpointRestore:
      return format("checkpoint rung restored (rung cycle %u)", event.a);
    case EventKind::Reconverged:
      return format("reconverged onto %s rung %u",
                    event.b != 0 ? "shadow" : "golden", event.a);
    case EventKind::BlockInvalidate:
      return format("superblock cache invalidated (%u blocks) at paddr ",
                    event.b) +
             hex32(event.a);
    case EventKind::CrashReport:
      return format("OOPS: crash dump (cause %u) fault addr ", event.a) +
             hex32(event.b) + ", eip " + label_addr(event.c, resolve);
    case EventKind::ChunkRun:
      return format("worker %u runs chunk [%u, %u)", event.a, event.b,
                    event.c);
    case EventKind::ChunkSteal:
      return format("worker %u steals chunk [%u, %u) from worker %u",
                    event.a, event.c, event.d, event.b);
  }
  return "?";
}

}  // namespace

std::string render_timeline(const std::vector<Event>& events,
                            const SymbolResolver& resolve) {
  std::string out;
  out += format("%-14s %-12s event\n", "cycle", "+trigger");
  bool have_trigger = false;
  std::uint64_t trigger_cycle = 0;
  for (const Event& event : events) {
    if (event.kind == EventKind::InjectTrigger) {
      have_trigger = true;
      trigger_cycle = event.cycle;
    }
    std::string delta = "-";
    if (have_trigger && event.cycle >= trigger_cycle) {
      delta = "+" + with_commas(event.cycle - trigger_cycle);
    }
    out += format("%-14s %-12s ", with_commas(event.cycle).c_str(),
                  delta.c_str());
    out += describe(event, resolve);
    out.push_back('\n');
  }
  return out;
}

}  // namespace kfi::trace
