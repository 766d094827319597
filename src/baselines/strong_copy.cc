#include "src/baselines/strong_copy.h"

#include "src/common/check.h"

namespace bmx {

StrongCopyCollector::StrongCopyCollector(Cluster* cluster, std::vector<BaselineAgent*> agents)
    : cluster_(cluster), agents_(std::move(agents)) {
  BMX_CHECK(cluster_ != nullptr);
  BMX_CHECK_EQ(agents_.size(), cluster_->size());
}

void StrongCopyCollector::Collect(NodeId node_id, BunchId bunch) {
  Node& node = cluster_->node(node_id);
  stats_.collections++;

  std::vector<Gaddr> live = node.gc().LiveObjects(bunch);
  std::vector<AddressUpdate> moves;

  SegmentId to_space = kInvalidSegment;
  auto allocate = [&](Oid oid, uint32_t size_slots) -> Gaddr {
    if (to_space != kInvalidSegment) {
      Gaddr addr = node.store().Find(to_space)->Allocate(oid, size_slots);
      if (addr != kNullAddr) {
        return addr;
      }
    }
    to_space = cluster_->directory().AllocateSegment(bunch, node_id);
    Gaddr addr = node.store().GetOrCreate(to_space, bunch).Allocate(oid, size_slots);
    BMX_CHECK_NE(addr, kNullAddr);
    return addr;
  };

  for (Gaddr addr : live) {
    // Strong consistency: every live object is copied under the write token,
    // wherever its owner is — read copies everywhere get invalidated and
    // ownership migrates to the collecting node.
    BMX_CHECK(node.dsm().AcquireWrite(addr, /*for_gc=*/true))
        << "strong-copy collector failed to acquire " << addr;
    stats_.tokens_acquired++;
    Gaddr current = node.dsm().ResolveAddr(addr);
    ObjectHeader* header = node.store().HeaderOf(current);
    BMX_CHECK(header != nullptr) << "strong-copy collector holds no bytes at " << current;
    Oid oid = header->oid;
    Gaddr new_addr = allocate(oid, header->size_slots);
    node.store().CopyObjectBytes(current, new_addr);
    header->flags |= kObjFlagForwarded;
    header->forward = new_addr;
    node.dsm().RecordLocalMove(oid, current, new_addr, bunch);
    moves.push_back(AddressUpdate{oid, bunch, current, new_addr});
    stats_.objects_copied++;
    node.dsm().Release(new_addr);
  }

  // Local reference fix-up, same as any copying collector.
  for (SegmentId seg : node.store().SegmentsOfBunch(bunch)) {
    SegmentImage* image = node.store().Find(seg);
    image->ForEachObject([&](Gaddr addr, ObjectHeader& header) {
      if (header.forwarded()) {
        return;
      }
      for (size_t i = 0; i < header.size_slots; ++i) {
        if (!node.store().SlotIsRef(addr, i)) {
          continue;
        }
        Gaddr value = node.store().ReadSlot(addr, i);
        if (value != kNullAddr) {
          node.store().WriteSlot(addr, i, node.dsm().ResolveAddr(value));
        }
      }
    });
  }

  // Eager propagation: dedicated, synchronous update messages to every other
  // replica — precisely the "high communication overhead" §4.4 avoids.
  uint64_t round = next_round_++;
  stats_.update_rounds++;
  for (NodeId other : cluster_->directory().MappersOf(bunch)) {
    if (other == node_id) {
      continue;
    }
    auto update = std::make_shared<StrongUpdatePayload>();
    update->round = round;
    update->updates = moves;
    cluster_->network().Send(node_id, other, std::move(update));
    agents_[node_id]->add_strong_acks_pending(1);
    stats_.update_messages++;
  }
  cluster_->Pump();
  BMX_CHECK_EQ(agents_[node_id]->strong_acks_pending(), 0u);
}

}  // namespace bmx
