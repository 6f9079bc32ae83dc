#include "vm/mmu.h"

#include "vm/liveness.h"

namespace kfi::vm {

void Mmu::set_liveness(ByteLiveness* liveness) {
  liveness_ = liveness;
  tag_mark_ = liveness != nullptr ? kObservedTag : 0;
  for (TlbEntry& e : tlb_) {
    if (e.tag != 0xFFFFFFFF) e.tag = (e.tag & ~kObservedTag) | tag_mark_;
  }
}

void Mmu::note_walk(std::uint32_t slot) const {
  if (liveness_ != nullptr) liveness_->walk(slot, 4);
}

void Mmu::flush_tlb() {
  for (TlbEntry& e : tlb_) e.tag = 0xFFFFFFFF;
  ++epoch_;
}

void Mmu::flush_page(std::uint32_t vaddr) {
  const std::uint32_t vpn = vaddr >> 12;
  tlb_[vpn & (kTlbSize - 1)].tag = 0xFFFFFFFF;
  ++epoch_;
}

TranslateStatus Mmu::peek(std::uint32_t vaddr, Access access, int cpl,
                          std::uint32_t& paddr) const {
  return lookup(vaddr, access, cpl, paddr, /*note=*/false);
}

void Mmu::note_peek(std::uint32_t vaddr) const {
  if (liveness_ == nullptr) return;
  std::uint32_t paddr = 0;
  lookup(vaddr, Access::Read, 0, paddr, /*note=*/true);
}

TranslateStatus Mmu::lookup(std::uint32_t vaddr, Access access, int cpl,
                            std::uint32_t& paddr, bool note) const {
  if (vaddr >= kMmioBase) {
    return cpl == 0 ? TranslateStatus::Mmio : TranslateStatus::Protection;
  }

  const std::uint32_t vpn = vaddr >> 12;
  const TlbEntry& entry = tlb_[vpn & (kTlbSize - 1)];
  if (tag_hit(entry, vpn)) {
    if (cpl != 0 && !entry.user) return TranslateStatus::Protection;
    if (access == Access::Write && !entry.writable) {
      return TranslateStatus::Protection;
    }
    paddr = entry.frame | (vaddr & kPageMask);
    return TranslateStatus::Ok;
  }

  const std::uint32_t pgd_slot = cr3_ + ((vaddr >> 22) << 2);
  if (!memory_.contains(pgd_slot, 4)) return TranslateStatus::BadPhysical;
  const std::uint32_t pgd_entry = memory_.read32(pgd_slot);
  if (note) note_walk(pgd_slot);
  if ((pgd_entry & kPtePresent) == 0) return TranslateStatus::NotPresent;

  const std::uint32_t pte_base = pgd_entry & kPteFrameMask;
  const std::uint32_t pte_slot = pte_base + (((vaddr >> 12) & 0x3FF) << 2);
  if (!memory_.contains(pte_slot, 4)) return TranslateStatus::BadPhysical;
  const std::uint32_t pte = memory_.read32(pte_slot);
  if (note) note_walk(pte_slot);
  if ((pte & kPtePresent) == 0) return TranslateStatus::NotPresent;

  const bool user_ok = (pgd_entry & kPteUser) && (pte & kPteUser);
  const bool writable = (pgd_entry & kPteWrite) && (pte & kPteWrite);
  if (cpl != 0 && !user_ok) return TranslateStatus::Protection;
  if (access == Access::Write && !writable) return TranslateStatus::Protection;

  const std::uint32_t frame = pte & kPteFrameMask;
  if (!memory_.contains(frame, kPageSize)) return TranslateStatus::BadPhysical;

  paddr = frame | (vaddr & kPageMask);
  return TranslateStatus::Ok;
}

TranslateStatus Mmu::translate(std::uint32_t vaddr, Access access, int cpl,
                               std::uint32_t& paddr) {
  if (vaddr >= kMmioBase) {
    return cpl == 0 ? TranslateStatus::Mmio : TranslateStatus::Protection;
  }

  const std::uint32_t vpn = vaddr >> 12;
  TlbEntry& entry = tlb_[vpn & (kTlbSize - 1)];
  if (tag_hit(entry, vpn)) {
    if (cpl != 0 && !entry.user) return TranslateStatus::Protection;
    if (access == Access::Write && !entry.writable) {
      return TranslateStatus::Protection;
    }
    paddr = entry.frame | (vaddr & kPageMask);
    return TranslateStatus::Ok;
  }

  // Walk: PGD entry, then PTE.
  const std::uint32_t pgd_slot = cr3_ + ((vaddr >> 22) << 2);
  if (!memory_.contains(pgd_slot, 4)) return TranslateStatus::BadPhysical;
  const std::uint32_t pgd_entry = memory_.read32(pgd_slot);
  note_walk(pgd_slot);
  if ((pgd_entry & kPtePresent) == 0) return TranslateStatus::NotPresent;

  const std::uint32_t pte_base = pgd_entry & kPteFrameMask;
  const std::uint32_t pte_slot = pte_base + (((vaddr >> 12) & 0x3FF) << 2);
  if (!memory_.contains(pte_slot, 4)) return TranslateStatus::BadPhysical;
  const std::uint32_t pte = memory_.read32(pte_slot);
  note_walk(pte_slot);
  if ((pte & kPtePresent) == 0) return TranslateStatus::NotPresent;

  const bool user_ok = (pgd_entry & kPteUser) && (pte & kPteUser);
  const bool writable = (pgd_entry & kPteWrite) && (pte & kPteWrite);
  if (cpl != 0 && !user_ok) return TranslateStatus::Protection;
  if (access == Access::Write && !writable) return TranslateStatus::Protection;

  const std::uint32_t frame = pte & kPteFrameMask;
  if (!memory_.contains(frame, kPageSize)) return TranslateStatus::BadPhysical;

  entry.tag = vpn | tag_mark_;
  entry.frame = frame;
  entry.writable = writable;
  entry.user = user_ok;
  ++epoch_;

  paddr = frame | (vaddr & kPageMask);
  return TranslateStatus::Ok;
}

}  // namespace kfi::vm
