"""``python -m repro <subcommand>`` — the ``carp`` command (:mod:`repro.cli`)."""

from repro.cli import main

raise SystemExit(main())
