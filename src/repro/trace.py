"""Human-readable wire traces for TLS and mcTLS byte streams.

A released protocol library needs a way to answer "what is actually on
the wire?".  :func:`describe_stream` decodes record headers and (for
plaintext records) handshake message structure into one line per item —
the output the tests snapshot and the examples print when run with
``MCTLS_TRACE=1``.

Encrypted fragments are summarised by length only; this is a passive
observer with no keys, exactly what an on-path third party sees.
Handshake messages decode through one ``msg_type`` → message class map,
and each summary receives the decoded message.
"""

from __future__ import annotations

from typing import List

from repro import framing as frm
from repro.mctls import messages as mm
from repro.mctls.contexts import ENDPOINT_TARGET, SessionTopology
from repro.mctls.record import split_records
from repro.mdtls import messages as mdm
from repro.tls import messages as tls_msgs
from repro.tls import record as rec
from repro.wire import DecodeError

_CONTENT_NAMES = {
    rec.CHANGE_CIPHER_SPEC: "ChangeCipherSpec",
    rec.ALERT: "Alert",
    rec.HANDSHAKE: "Handshake",
    rec.APPLICATION_DATA: "ApplicationData",
}

_PERM_NAMES = {0: "none", 1: "read", 2: "write"}

_SENDERS = {mm.SENDER_CLIENT: "client", mm.SENDER_SERVER: "server"}


def _framing_ext_note(hello) -> str:
    """Render the mcTLS framing offer/echo carried in a hello, if any.

    Shows the offered framing by name plus the per-field sub-context
    declarations (``ctx<N>:name[start:end],...``) so a capture makes the
    negotiated record geometry explicit — framing is negotiated, never
    implied by the stream.
    """
    ext = hello.find_extension(mm.EXT_MCTLS_FRAMING)
    if ext is None:
        return ""
    framing_id, schemas = mm.decode_framing_offer(ext)
    try:
        name = frm.framing_by_id(framing_id).name
    except frm.FramingError:
        name = f"id{framing_id}"
    note = f" framing={name}"
    if schemas:
        parts = []
        for schema in schemas:
            fields = ",".join(
                f"{f.name}[{f.start}:{f.end}]" for f in schema.fields
            )
            parts.append(f"ctx{schema.context_id}:{fields}")
        note += " fields=" + " ".join(parts)
    return note


def _client_hello(hello: tls_msgs.ClientHello) -> str:
    detail = f" suites={len(hello.cipher_suites)}"
    if hello.session_id:
        detail += f" session_id={len(hello.session_id)}B (resumption offer)"
    ext = hello.find_extension(tls_msgs.EXT_MIDDLEBOX_LIST)
    if ext is not None:
        topo = SessionTopology.decode(ext)
        detail += f" middleboxes={len(topo.middleboxes)} contexts={len(topo.contexts)}"
    return detail + _framing_ext_note(hello)


def _server_hello(hello: tls_msgs.ServerHello) -> str:
    detail = f" suite=0x{hello.cipher_suite:04x}"
    if hello.session_id:
        detail += f" session_id={len(hello.session_id)}B"
    mode = hello.find_extension(mm.EXT_MCTLS_MODE)
    if mode:
        detail += f" mode={mode[0]}"
    return detail + _framing_ext_note(hello)


def _chain(certificates) -> str:
    return "chain=[" + ", ".join(c.subject for c in certificates) + "]"


def _key_material(mkm: mm.MiddleboxKeyMaterial) -> str:
    target = "endpoint" if mkm.target == ENDPOINT_TARGET else f"mbox {mkm.target}"
    return f" from={_SENDERS[mkm.sender]} to={target} sealed={len(mkm.sealed)}B"


def _warrant_issue(issue: mdm.WarrantIssue) -> str:
    grants = ", ".join(
        f"mbox{w.mbox_id}:{{"
        + ",".join(
            f"{ctx}={_PERM_NAMES.get(int(perm), int(perm))}"
            for ctx, perm in sorted(w.grants.items())
        )
        + "}"
        for w in issue.warrants
    )
    return f" issuer={_SENDERS[issue.sender]} warrants=[{grants}]"


def _nothing(message) -> str:
    return ""


# Every TLS, mcTLS and mdTLS handshake message class, with what its
# decoded form shows after its name.
_DETAILS = {
    tls_msgs.ClientHello: _client_hello,
    tls_msgs.ServerHello: _server_hello,
    tls_msgs.CertificateMessage: lambda m: " " + _chain(m.chain),
    tls_msgs.ServerKeyExchange: _nothing,
    tls_msgs.ServerHelloDone: _nothing,
    tls_msgs.ClientKeyExchange: _nothing,
    tls_msgs.Finished: _nothing,
    mm.MiddleboxHello: lambda m: f" mbox={m.mbox_id}",
    mm.MiddleboxCertificateMessage: lambda m: f" mbox={m.mbox_id} " + _chain(m.chain),
    mm.MiddleboxKeyExchange: lambda m: f" mbox={m.mbox_id} toward="
    + ("client" if m.direction == mm.TOWARD_CLIENT else "server"),
    mm.MiddleboxKeyMaterial: _key_material,
    mdm.WarrantIssue: _warrant_issue,
    mdm.DelegatedKeyMaterial: lambda m: f" to=mbox {m.target} sealed={len(m.sealed)}B",
}

# The one message map: msg_type → message class.
_MESSAGES = {cls.msg_type: cls for cls in _DETAILS}


def _describe_handshake_message(msg_type: int, body: bytes) -> str:
    cls = _MESSAGES.get(msg_type)
    if cls is None:
        return f"handshake[{msg_type}] ({len(body)}B)"
    try:
        detail = _DETAILS[cls](cls.decode(body))
    except DecodeError:
        detail = " (body undecodable)"
    return f"{cls.__name__.removesuffix('Message')} ({len(body)}B){detail}"


def _trailer_note(mctls: bool, context_id, fr=None) -> str:
    """The structural layout of a protected mcTLS record's trailer.

    Context 0 (the handshake/default context) carries a single MAC;
    contexts >= 1 carry the paper's three-MAC trailer — one MAC per key
    class — so endpoints, writers and readers can each verify exactly
    what their permission allows (§3.3).  Compact-framed records carry
    the same trailer truncated to 8 bytes per MAC, followed by one
    truncated MAC per declared sub-context field.
    """
    if not mctls or context_id is None:
        return ""
    compact = fr is not None and fr.field_macs
    if context_id == 0:
        return "; payload || MAC8" if compact else "; payload || MAC"
    if compact:
        return (
            "; payload || MAC_endpoints8 || MAC_writers8 || MAC_readers8"
            " || field MACs"
        )
    return "; payload || MAC_endpoints || MAC_writers || MAC_readers"


def describe_stream(data: bytes, mctls: bool = True) -> List[str]:
    """One description line per record in ``data``.

    The description is stateful across the stream: once a
    ChangeCipherSpec is seen, subsequent handshake records (the Finished
    flight) are summarised as protected instead of parsed — which is all
    a passive observer sees, and also what makes whole-handshake captures
    safe to trace.  An abbreviated (resumption) flow is called out when a
    server flight goes ServerHello → CCS without a Certificate.
    Incomplete trailing bytes are reported as such.
    """
    lines: List[str] = []
    records = []
    buf = bytearray(data)
    try:
        # mcTLS framing is detected per record: the compact marker byte
        # range (0xD0-0xD3) is disjoint from the default content types,
        # so a mixed default/compact capture splits cleanly.
        framing = None if mctls else frm.TLS_DEFAULT
        for ct, ctx, frag, raw in split_records(buf, framing):
            if mctls:
                records.append((ct, ctx, frag, frm.detect_mctls_framing(raw[0])))
            else:
                records.append((ct, None, frag, framing))
    except rec.RecordError as exc:
        lines.append(f"!! malformed record stream: {exc}")
        return lines

    seen_ccs = False
    seen_types = set()  # handshake message types parsed so far
    for content_type, context_id, fragment, fr in records:
        prefix = _CONTENT_NAMES.get(content_type, f"type[{content_type}]")
        ctx_part = f" ctx={context_id}" if context_id is not None else ""
        if content_type == rec.APPLICATION_DATA:
            note = _trailer_note(mctls, context_id, fr)
            lines.append(f"{prefix}{ctx_part} <{len(fragment)}B protected{note}>")
            continue
        if content_type == rec.CHANGE_CIPHER_SPEC:
            note = ""
            if (
                tls_msgs.SERVER_HELLO in seen_types
                and tls_msgs.CERTIFICATE not in seen_types
            ):
                note = " (abbreviated handshake: resumption accepted)"
            seen_ccs = True
            lines.append(f"{prefix}{ctx_part} {len(fragment)}B{note}")
            continue
        if content_type == rec.HANDSHAKE:
            if seen_ccs:
                # Post-CCS handshake records (the Finished flight) are
                # encrypted; only their size is visible on the path.
                lines.append(f"{prefix}{ctx_part} <{len(fragment)}B protected>")
                continue
            hs = tls_msgs.HandshakeBuffer()
            hs.feed(fragment)
            while True:
                message = hs.next_message()
                if message is None:
                    break
                msg_type, body, _ = message
                seen_types.add(msg_type)
                lines.append(
                    f"{prefix}{ctx_part} :: "
                    + _describe_handshake_message(msg_type, body)
                )
            if hs.has_partial:
                lines.append(f"{prefix}{ctx_part} :: (partial message)")
        elif content_type == rec.ALERT and len(fragment) == 2:
            level = "fatal" if fragment[0] == 2 else "warning"
            lines.append(f"{prefix}{ctx_part} {level} code={fragment[1]}")
        else:
            lines.append(f"{prefix}{ctx_part} {len(fragment)}B")
    if buf:
        lines.append(f"... {len(buf)}B incomplete trailing record")
    return lines
