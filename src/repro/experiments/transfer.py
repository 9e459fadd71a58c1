"""Figure 7: file download time across link speeds and file sizes.

One middlebox with full read/write access (worst case for mcTLS).  The
client opens the session, requests a file, and we record the time from
connection start until the last payload byte arrives — so small files
are dominated by handshake RTTs and large files by link bandwidth,
exactly the structure of the paper's Figure 7.

Configurations reproduce the paper's x-axis: 1 Mbps × {0.5 kB, 4.9 kB,
185.6 kB, 10 MB}, {10, 100} Mbps × 185.6 kB (controlled), and the
wide-area fiber / 3G profiles × 185.6 kB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.harness import (
    Mode,
    TestBed,
    build_links,
    build_path,
    is_app_data,
    is_handshake_complete,
)
from repro.netsim import Simulator
from repro.netsim.profiles import LinkProfile, controlled, wide_area_3g, wide_area_fiber
from repro.workloads.filesizes import PAPER_FILE_SIZES


@dataclass
class TransferResult:
    mode: str
    config: str
    file_size: int
    download_time_s: float


def measure_transfer(
    bed: TestBed,
    mode: Mode,
    file_size: int,
    profile: LinkProfile,
    nagle: bool = True,
    config_name: str = "",
) -> TransferResult:
    """Time from connection start to last file byte at the client."""
    sim = Simulator()
    links = build_links(sim, profile)
    n_middleboxes = profile.hops - 1
    topology = (
        bed.topology(n_middleboxes, n_contexts=1) if mode.has_contexts else None
    )
    is_mctls = topology is not None

    state: Dict[str, float] = {"received": 0}
    path_holder: List[object] = []

    def client_event(event, now):
        if is_handshake_complete(event):
            path_holder[0].client_node.send_application_data(
                b"GET", context_id=1 if is_mctls else None
            )
        elif is_app_data(event):
            state["received"] += len(event.data)
            if state["received"] >= file_size and "done" not in state:
                state["done"] = now

    def server_event(event, now):
        if is_app_data(event):
            path_holder[0].server_node.send_application_data(
                b"x" * file_size, context_id=1 if is_mctls else None
            )

    path = build_path(
        sim,
        bed,
        mode,
        links,
        topology=topology,
        nagle=nagle,
        client_on_event=client_event,
        server_on_event=server_event,
    )
    path_holder.append(path)
    path.start()
    sim.run(until=1000.0)
    if "done" not in state:
        raise RuntimeError(
            f"transfer incomplete: {mode} {config_name} got {state['received']}/{file_size}"
        )
    return TransferResult(
        mode=mode.value if nagle else f"{mode.value} (Nagle off)",
        config=config_name,
        file_size=file_size,
        download_time_s=state["done"],
    )


def figure7_configs() -> List[dict]:
    """The eight bar groups of Figure 7."""
    p10, p50, p99, large = (
        PAPER_FILE_SIZES["p10"],
        PAPER_FILE_SIZES["p50"],
        PAPER_FILE_SIZES["p99"],
        PAPER_FILE_SIZES["large"],
    )
    return [
        {"name": "1Mbps/0.5kB", "profile": controlled(2, 1.0), "size": p10},
        {"name": "1Mbps/4.9kB", "profile": controlled(2, 1.0), "size": p50},
        {"name": "1Mbps/185.6kB", "profile": controlled(2, 1.0), "size": p99},
        {"name": "1Mbps/10MB", "profile": controlled(2, 1.0), "size": large},
        {"name": "10Mbps/185.6kB", "profile": controlled(2, 10.0), "size": p99},
        {"name": "100Mbps/185.6kB", "profile": controlled(2, 100.0), "size": p99},
        {"name": "Fiber/185.6kB", "profile": wide_area_fiber(), "size": p99},
        {"name": "3G/185.6kB", "profile": wide_area_3g(), "size": p99},
    ]


def figure7(
    bed: TestBed,
    modes=(Mode.MCTLS, Mode.SPLIT_TLS, Mode.E2E_TLS, Mode.NO_ENCRYPT),
    include_nagle_off: bool = True,
    configs: Optional[List[dict]] = None,
) -> List[TransferResult]:
    rows: List[TransferResult] = []
    for config in configs or figure7_configs():
        for mode in modes:
            rows.append(
                measure_transfer(
                    bed, mode, config["size"], config["profile"], config_name=config["name"]
                )
            )
        if include_nagle_off:
            rows.append(
                measure_transfer(
                    bed,
                    Mode.MCTLS,
                    config["size"],
                    config["profile"],
                    nagle=False,
                    config_name=config["name"],
                )
            )
    return rows
