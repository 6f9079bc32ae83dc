// Two-level paging MMU (IA-32 style: 10-bit PGD index, 10-bit PTE index,
// 12-bit offset) with a small direct-mapped TLB.
//
// The page tables live in simulated physical memory and are maintained by
// the simulated kernel's mm code, so instruction-stream errors can and do
// corrupt translations — one of the propagation channels the paper
// observes (mm faults crashing in other subsystems).
#pragma once

#include <cstdint>

#include "vm/layout.h"
#include "vm/memory.h"

namespace kfi::vm {

class ByteLiveness;

enum class Access : std::uint8_t { Read, Write, Execute };

enum class TranslateStatus : std::uint8_t {
  Ok,
  NotPresent,   // PGD/PTE absent -> #PF (error code: not-present)
  Protection,   // write to RO page or user access to supervisor -> #PF
  BadPhysical,  // PTE points outside RAM -> #PF (paging request)
  Mmio,         // address in MMIO window (supervisor only)
};

class Mmu {
 public:
  explicit Mmu(PhysicalMemory& memory) : memory_(memory) {}

  std::uint32_t cr3() const { return cr3_; }
  void set_cr3(std::uint32_t pgd_phys) {
    cr3_ = pgd_phys;
    flush_tlb();
  }

  // Translates `vaddr`; on Ok fills `paddr`.  MMIO addresses return
  // Mmio when cpl==0 (Protection otherwise) and do not fill paddr.
  TranslateStatus translate(std::uint32_t vaddr, Access access, int cpl,
                            std::uint32_t& paddr);

  // TLB-hit probe: true (with `paddr` filled) exactly when translate()
  // would return Ok straight from the TLB — a permitted hit, which
  // translate() serves without a walk, a fill or an epoch bump.  Const
  // and side-effect-free; false (miss, protection, MMIO) means "ask
  // translate()", which then produces the exact status and fill.  The
  // CPU's inline data path and the block engine's fetch verification
  // sit on this.  While a liveness recorder is attached every tag
  // carries kObservedTag, so it always misses.
  bool probe(std::uint32_t vaddr, Access access, int cpl,
             std::uint32_t& paddr) const {
    if (vaddr >= kMmioBase) return false;
    const std::uint32_t vpn = vaddr >> 12;
    const TlbEntry& entry = tlb_[vpn & (kTlbSize - 1)];
    if (entry.tag != vpn || (cpl != 0 && !entry.user) ||
        (access == Access::Write && !entry.writable)) {
      return false;
    }
    paddr = entry.frame | (vaddr & kPageMask);
    return true;
  }

  // Same result as translate() with the TLB-hit path inlined; falls
  // through to the full (filling) walk otherwise.
  TranslateStatus translate_fast(std::uint32_t vaddr, Access access, int cpl,
                                 std::uint32_t& paddr) {
    if (probe(vaddr, access, cpl, paddr)) return TranslateStatus::Ok;
    return translate(vaddr, access, cpl, paddr);
  }

  // Monotonic count of TLB mutations: fills (translate() walks that
  // install an entry), flushes, and cr3 loads.  Two uses: the chained
  // block engine's inline translate cache skips a translate_fast call
  // only while the epoch is unchanged since the last verified hit on
  // the same page (a skipped call is then provably a side-effect-free
  // TLB hit), and the cross-engine TLB-determinism tests assert equal
  // epochs after equal runs — any divergence in fill history between
  // the stepper and the block engine shows up here.
  std::uint64_t epoch() const { return epoch_; }

  // Translation without side effects: identical result to translate()
  // at this instant, but never fills the TLB and reports no walk to the
  // liveness recorder.  Block *construction* uses this so predecoding
  // lookahead instructions cannot perturb the TLB state the stepping
  // engine would have — stale-entry semantics stay bit-identical
  // between engines — nor report walks of pages the run never reaches.
  TranslateStatus peek(std::uint32_t vaddr, Access access, int cpl,
                       std::uint32_t& paddr) const;

  // Reports to the liveness recorder the entries peek(vaddr) reads
  // (none on a TLB hit).  The stepper's fetch calls it when a decode
  // depended on the cross-page tail it peeked.
  void note_peek(std::uint32_t vaddr) const;

  void flush_tlb();

  // Attaches a liveness recorder (nullptr = off).  Every translate()
  // walk then reports the entries it reads, and every TLB tag carries
  // kObservedTag: translate() and peek() ignore the mark, so TLB
  // contents, fills and epochs are unchanged, but probe() misses and
  // the CPU takes its out-of-line data path, which reports accesses.
  // The inline TLB-hit path thus needs no hook of its own.
  void set_liveness(ByteLiveness* liveness);

  // Drops any cached translation for the page containing `vaddr`
  // (the kernel's invlpg; also called by the CPU after stores that hit
  // page-table pages is *not* modelled — the kernel flushes explicitly,
  // as real kernels must).
  void flush_page(std::uint32_t vaddr);

 private:
  struct TlbEntry {
    std::uint32_t tag = 0xFFFFFFFF;  // vpn | valid marker
    std::uint32_t frame = 0;
    bool writable = false;
    bool user = false;
  };

  static constexpr std::uint32_t kTlbSize = 256;  // power of two
  // Tag mark while a liveness recorder is attached: above every vpn
  // (20 bits), and the invalid tag stays invalid with it masked off.
  static constexpr std::uint32_t kObservedTag = 0x80000000u;

  // True when `entry` caches `vpn`, whatever its mark.
  static bool tag_hit(const TlbEntry& entry, std::uint32_t vpn) {
    return (entry.tag & ~kObservedTag) == vpn;
  }
  // A walk read the 4-byte entry at `slot`.
  void note_walk(std::uint32_t slot) const;
  // peek(), reporting the entries its walk reads when `note` is set.
  TranslateStatus lookup(std::uint32_t vaddr, Access access, int cpl,
                         std::uint32_t& paddr, bool note) const;

  PhysicalMemory& memory_;
  std::uint32_t cr3_ = kBootPgdPhys;
  TlbEntry tlb_[kTlbSize];
  std::uint64_t epoch_ = 0;
  ByteLiveness* liveness_ = nullptr;
  std::uint32_t tag_mark_ = 0;  // kObservedTag while liveness_ is set
};

}  // namespace kfi::vm
