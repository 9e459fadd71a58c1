"""Deterministic fault injection for mcTLS (§3.4 detection guarantees).

``repro.faults`` turns the paper's Table 1 into an executable
specification:

* :mod:`repro.faults.mutations` — seeded record- and handshake-level
  mutators (bit-flips targeting the payload and each MAC slot,
  truncation, deletion, replay, reordering, context splicing, version
  confusion; handshake message drop / field mutation / middlebox-list
  tampering);
* :mod:`repro.faults.attacker` — on-path adversaries: the key-less
  :class:`TamperProxy` (takes a hop's slot in a
  :class:`repro.transport.Chain` or, as one of ``build_path(...,
  relays=...)``, in a ``repro.netsim`` path) and the key-abusing
  :class:`MaliciousReader`;
* :mod:`repro.faults.matrix` — the property runner that builds every
  (role × permission × mutation × session variant) cell from the
  experiment harness's test bed and asserts the right party detects
  tampering via the right MAC.
"""

from repro.faults.attacker import (
    MaliciousReader,
    TamperPlan,
    TamperProxy,
    forge_reader_record,
)
from repro.faults.matrix import (
    SEED,
    CellResult,
    CellSpec,
    Expected,
    Outcome,
    all_cells,
    expected_matrix,
    failure_info,
    run_cell,
    run_matrix,
)
from repro.faults.mutations import (
    ContextIdSwap,
    DeleteRecord,
    DropHandshakeMessage,
    EscalatePermission,
    FlipHandshakeBit,
    FlipMacBit,
    FlipPayloadBit,
    HandshakeMutator,
    RecordMutator,
    RecordView,
    ReorderRecords,
    ReplayRecord,
    TruncateRecord,
    VersionConfusion,
    standard_record_mutators,
)

__all__ = [
    "CellResult",
    "CellSpec",
    "ContextIdSwap",
    "DeleteRecord",
    "DropHandshakeMessage",
    "EscalatePermission",
    "Expected",
    "FlipHandshakeBit",
    "FlipMacBit",
    "FlipPayloadBit",
    "HandshakeMutator",
    "MaliciousReader",
    "Outcome",
    "RecordMutator",
    "RecordView",
    "ReorderRecords",
    "ReplayRecord",
    "SEED",
    "TamperPlan",
    "TamperProxy",
    "TruncateRecord",
    "VersionConfusion",
    "all_cells",
    "expected_matrix",
    "failure_info",
    "forge_reader_record",
    "run_cell",
    "run_matrix",
    "standard_record_mutators",
]
