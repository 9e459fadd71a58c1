"""Figures 4 & 6: web page load time.

Replays synthetic Alexa-like pages (see :mod:`repro.workloads`) through
the simulated network, following the paper's replay rules: each page's
connections run in parallel, each object is requested once the previous
object on the same connection has fully arrived, and every connection
does its own transport + security handshake through the middlebox.

Figure 4 compares mcTLS context strategies (1-Context / 4-Context /
Context-per-Header, ± Nagle); Figure 6 compares protocols (mcTLS-4Ctx vs
SplitTLS / E2E-TLS / NoEncrypt).  The paper's findings: strategies are
indistinguishable; mcTLS matches the others once Nagle is off (multiple
per-context ``send()`` calls trigger Nagle stalls otherwise).
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
from repro.http import (
    FOUR_CONTEXT,
    HttpClientSession,
    HttpRequest,
    HttpResponse,
    HttpServerSession,
    ONE_CONTEXT,
)
from repro.http.strategies import CONTEXT_PER_HEADER, ContextStrategy
from repro.netsim import Simulator
from repro.netsim.profiles import controlled
from repro.workloads.alexa import PageCorpus, SyntheticPage

STRATEGIES: Dict[str, ContextStrategy] = {
    "1-Ctx": ONE_CONTEXT,
    "4-Ctx": FOUR_CONTEXT,
    "CtxPerHdr": CONTEXT_PER_HEADER,
}

_REQUEST_HEADERS = [
    ("Host", "server.example"),
    ("User-Agent", "repro-browser/1.0 (mcTLS reproduction)"),
    ("Accept", "text/html,application/xhtml+xml,*/*;q=0.8"),
    ("Cookie", "session=0123456789abcdef0123456789abcdef"),
]


def _object_request(size: int, index: int) -> HttpRequest:
    return HttpRequest(
        target=f"/object/{index}?size={size}", headers=list(_REQUEST_HEADERS)
    )


def _serve(request: HttpRequest) -> HttpResponse:
    size = int(request.target.rsplit("size=", 1)[1])
    return HttpResponse(
        headers=[("Content-Type", "application/octet-stream")],
        body=b"x" * size,
    )


@dataclass
class PageLoadResult:
    label: str
    page_url: str
    plt_s: float
    object_count: int
    total_bytes: int


class _ConnectionDriver:
    """Fetches one connection's object list sequentially."""

    def __init__(self, path, strategy: Optional[ContextStrategy], sizes, on_done):
        self.path = path
        self.sizes = list(sizes)
        self.index = 0
        self.on_done = on_done
        self.client_session = HttpClientSession(path.client_node.connection, strategy)
        self.server_session = HttpServerSession(
            path.server_node.connection, _serve, strategy
        )

    def client_event(self, event, now):
        if is_handshake_complete(event):
            self._request_next()
        elif is_app_data(event):
            self.client_session.on_data(event.data)
            self.path.client_node.flush()

    def server_event(self, event, now):
        if is_app_data(event):
            self.server_session.on_data(event.data)
            self.path.server_node.flush()

    def _request_next(self):
        size = self.sizes[self.index]
        self.client_session.request(
            _object_request(size, self.index), self._on_response
        )
        self.path.client_node.flush()

    def _on_response(self, response):
        self.index += 1
        if self.index < len(self.sizes):
            self._request_next()
        else:
            self.on_done()


def load_page(
    bed: TestBed,
    mode: Mode,
    page: SyntheticPage,
    strategy: Optional[ContextStrategy] = None,
    nagle: bool = True,
    n_middleboxes: int = 1,
    bandwidth_mbps: float = 10.0,
    hop_delay_ms: float = 20.0,
    label: str = "",
) -> PageLoadResult:
    """Load one page; returns the page load time (last object completion)."""
    sim = Simulator()
    profile = controlled(
        hops=n_middleboxes + 1, bandwidth_mbps=bandwidth_mbps, hop_delay_ms=hop_delay_ms
    )
    links = build_links(sim, profile)

    if mode.has_contexts:
        if strategy is None:
            strategy = FOUR_CONTEXT
        from repro.mctls import Permission

        contexts = strategy.uniform_permissions(
            list(range(1, n_middleboxes + 1)), Permission.WRITE
        )
        topology = bed.topology(n_middleboxes, contexts=contexts)
        conn_strategy = strategy
    else:
        topology = None
        conn_strategy = None

    finished = {"count": 0}
    plt = {"t": 0.0}
    drivers: List[_ConnectionDriver] = []

    n_connections = len(page.connections)

    def make_done(sim_ref):
        def done():
            finished["count"] += 1
            plt["t"] = max(plt["t"], sim_ref.now)
        return done

    for sizes in page.connections:
        driver_box: List[_ConnectionDriver] = []

        def client_event(event, now, box=driver_box):
            box[0].client_event(event, now)

        def server_event(event, now, box=driver_box):
            box[0].server_event(event, now)

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
        driver = _ConnectionDriver(path, conn_strategy, sizes, make_done(sim))
        driver_box.append(driver)
        drivers.append(driver)
        path.start()

    sim.run(until=300.0)
    if finished["count"] != n_connections:
        raise RuntimeError(
            f"page load stalled: {finished['count']}/{n_connections} connections done"
        )
    return PageLoadResult(
        label=label,
        page_url=page.url,
        plt_s=plt["t"],
        object_count=page.object_count,
        total_bytes=page.total_bytes,
    )


def figure4(
    bed: TestBed, corpus: PageCorpus, max_pages: Optional[int] = None
) -> List[PageLoadResult]:
    """PLT per page for the three context strategies, Nagle on and off."""
    pages = list(corpus)[:max_pages] if max_pages else list(corpus)
    rows: List[PageLoadResult] = []
    for name, strategy in STRATEGIES.items():
        for nagle in (True, False):
            label = f"mcTLS ({name})" + ("" if nagle else " Nagle off")
            for page in pages:
                rows.append(
                    load_page(
                        bed, Mode.MCTLS, page, strategy=strategy, nagle=nagle, label=label
                    )
                )
    return rows


def figure6(
    bed: TestBed, corpus: PageCorpus, max_pages: Optional[int] = None
) -> List[PageLoadResult]:
    """PLT per page: mcTLS (4-Ctx, ± Nagle) vs the three baselines."""
    pages = list(corpus)[:max_pages] if max_pages else list(corpus)
    rows: List[PageLoadResult] = []
    series = [
        ("mcTLS (4 Ctx)", Mode.MCTLS, True),
        ("mcTLS (4 Ctx, Nagle off)", Mode.MCTLS, False),
        ("SplitTLS (Nagle off)", Mode.SPLIT_TLS, False),
        ("E2E-TLS (Nagle off)", Mode.E2E_TLS, False),
        ("NoEncrypt (Nagle off)", Mode.NO_ENCRYPT, False),
    ]
    for label, mode, nagle in series:
        for page in pages:
            rows.append(
                load_page(bed, mode, page, strategy=FOUR_CONTEXT, nagle=nagle, label=label)
            )
    return rows

