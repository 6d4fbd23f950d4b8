"""``ledger`` — the repo's wall-clock benchmark (ROADMAP item 1).

Four workloads drive the program through its public API only
(``repro.api.Session``, ``repro.query.request.QueryRequest``,
``Session.serve()``), check every output against a float64 oracle and
report end-to-end metrics; a traced rerun wraps a fixed table of public
callables from the outside (``ledger/trace.py``) for per-layer numbers.
See ``ledger/README.md``.  Nothing in here is imported by ``src/``.

Importing this package has no side effects; entry points call
:func:`ledger.env.prepare` before they import anything that needs
``repro``.
"""
