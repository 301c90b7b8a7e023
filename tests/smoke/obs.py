"""Obs smoke: the Prometheus exposition and the live dashboard.

The ``make obs-smoke`` gate: a real server subprocess runs one small
job, then ``GET /metrics?format=prometheus`` must pass
:func:`repro.obs.validate_exposition` and ``GET /dashboard`` must
serve the self-contained HTML page.
"""

from __future__ import annotations

import sys
import urllib.request

from _server import SPEC, Server, SmokeFailure, check, run

from repro.obs import validate_exposition


def obs_smoke(root: str) -> None:
    """Boot a real server; validate the text exposition + dashboard."""
    with Server(root) as server:
        print(f"obs smoke @ {root} (port {server.port})")
        # One real job first, so the histograms/phase bars have data.
        reply = server.client.submit(SPEC)
        server.client.wait(reply["job"], timeout=120)

        with urllib.request.urlopen(
            f"{server.url}/metrics?format=prometheus", timeout=10
        ) as response:
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
        check("text/plain" in content_type,
              f"exposition served as {content_type!r}, want text/plain")
        try:
            checked = validate_exposition(text)
        except ValueError as exc:
            raise SmokeFailure(f"invalid exposition: {exc}") from exc
        for required in ("repro_uptime_seconds",
                         "repro_http_request_duration_ms_bucket",
                         "repro_jobs"):
            check(required in text, f"exposition is missing {required}")
        print(f"  prometheus exposition OK ({checked['metrics']} "
              f"metrics, {checked['samples']} samples)")

        with urllib.request.urlopen(
            f"{server.url}/dashboard", timeout=10
        ) as response:
            status = response.status
            page = response.read().decode("utf-8")
        check(status == 200 and "<html" in page and "/metrics" in page,
              "/dashboard did not serve the dashboard page")
        print(f"  dashboard OK ({len(page)} bytes, self-contained)")
        code = server.drain()
    check(code == 0, f"server exited {code} on SIGTERM")


if __name__ == "__main__":
    sys.exit(run("obs", obs_smoke))
