"""Executable demo scenarios: web server, logging library, archiver."""

from .harness import (
    BUNDLES,
    WEBSERVER_POLICIES,
    Bundle,
    Report,
    attribute_mechanism,
    link_whole,
    logging_bundle,
    run_scenario,
    webserver_bundle,
    webserver_interface,
    webserver_worlds,
    zip_bundle,
)

__all__ = [
    "BUNDLES",
    "WEBSERVER_POLICIES",
    "Bundle",
    "Report",
    "attribute_mechanism",
    "link_whole",
    "logging_bundle",
    "run_scenario",
    "webserver_bundle",
    "webserver_interface",
    "webserver_worlds",
    "zip_bundle",
]
