"""``python -m repro.serve`` / ``qlint serve`` — start the daemon.

Transports (mutually exclusive; stdio is the default):

* ``--stdio``         — requests on stdin, responses on stdout;
* ``--socket PATH``   — Unix domain socket (scriptable with ``nc -U``);
* ``--tcp HOST:PORT`` — TCP (scriptable with ``nc``/``curl`` piping).

Everything diagnostic goes to stderr; stdout carries only protocol
lines, so ``--stdio`` pipelines stay clean.
"""

from __future__ import annotations

import argparse
import sys

from .server import Server
from .session import SERVE_MEMORY_ENTRIES, Session


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlint serve",
        description=(
            "Long-lived qualifier-analysis daemon speaking JSON-RPC 2.0 "
            "over newline-delimited JSON (see docs/SERVING.md)."
        ),
    )
    transport = parser.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio",
        action="store_true",
        help="serve stdin/stdout (the default)",
    )
    transport.add_argument(
        "--socket",
        metavar="PATH",
        help="listen on a Unix domain socket at PATH",
    )
    transport.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP host:port",
    )
    parser.add_argument(
        "--checks",
        metavar="NAMES",
        help="comma-separated default check names (per-request 'checks' overrides)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk analysis cache root (default: private temp dir)",
    )
    parser.add_argument(
        "--memory-entries",
        type=int,
        default=SERVE_MEMORY_ENTRIES,
        metavar="N",
        help=f"in-memory cache tier bound (default {SERVE_MEMORY_ENTRIES})",
    )
    args = parser.parse_args(argv)

    checks = None
    if args.checks:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())

    try:
        session = Session(
            checks=checks,
            cache_dir=args.cache_dir,
            memory_entries=args.memory_entries,
        )
    except Exception as exc:
        print(f"qlint serve: {exc}", file=sys.stderr)
        return 2
    server = Server(session)
    try:
        if args.tcp:
            host, _, port_text = args.tcp.rpartition(":")
            host = host or "127.0.0.1"
            try:
                port = int(port_text)
            except ValueError:
                print(f"qlint serve: bad --tcp address {args.tcp!r}", file=sys.stderr)
                return 2
            print(f"qlint serve: listening on tcp {host}:{port}", file=sys.stderr)
            return server.serve_tcp(host, port)
        if args.socket:
            print(f"qlint serve: listening on unix {args.socket}", file=sys.stderr)
            return server.serve_unix(args.socket)
        return server.serve_stdio()
    except KeyboardInterrupt:
        return 0
    finally:
        session.close()


if __name__ == "__main__":
    raise SystemExit(main())
