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
from typing import List

from repro.experiments.harness import Mode, TestBed, series_label, simulate_exchange
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
    exchange = simulate_exchange(bed, mode, profile, b"GET", b"x" * file_size, nagle)
    return TransferResult(
        mode=series_label(mode, nagle),
        config=config_name,
        file_size=file_size,
        download_time_s=exchange.last_byte_s,
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
) -> List[TransferResult]:
    """Every mode per bar group, plus mcTLS with Nagle off."""
    rows: List[TransferResult] = []
    for config in figure7_configs():
        for mode in modes:
            rows.append(
                measure_transfer(
                    bed, mode, config["size"], config["profile"], config_name=config["name"]
                )
            )
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
