#include "core/config.h"

namespace massbft {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kMassBft:
      return "MassBFT";
    case ProtocolKind::kBaseline:
      return "Baseline";
    case ProtocolKind::kGeoBft:
      return "GeoBFT";
    case ProtocolKind::kSteward:
      return "Steward";
    case ProtocolKind::kIss:
      return "ISS";
    case ProtocolKind::kBr:
      return "BR";
    case ProtocolKind::kEbr:
      return "EBR";
  }
  return "unknown";
}

ProtocolShape ShapeOf(ProtocolKind kind) {
  using R = ReplicationMode;
  using G = GlobalConsensus;
  using O = OrderingMode;
  switch (kind) {
    case ProtocolKind::kMassBft:
      return {R::kEncodedBijective, G::kRaft, O::kAsyncVts};
    case ProtocolKind::kBaseline:
      return {R::kLeaderOneWay, G::kRaft, O::kRoundSync};
    case ProtocolKind::kGeoBft:
      return {R::kLeaderOneWay, G::kNone, O::kRoundSync};
    case ProtocolKind::kSteward:
      return {R::kLeaderOneWay, G::kSingleMaster, O::kFifo};
    case ProtocolKind::kIss:
      return {R::kLeaderOneWay, G::kRaft, O::kEpoch};
    case ProtocolKind::kBr:
      return {R::kBijective, G::kRaft, O::kRoundSync};
    case ProtocolKind::kEbr:
      return {R::kEncodedBijective, G::kRaft, O::kRoundSync};
  }
  return ShapeOf(ProtocolKind::kMassBft);
}

}  // namespace massbft
