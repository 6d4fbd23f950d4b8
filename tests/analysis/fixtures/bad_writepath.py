"""Fixture: every W-family rule must fire on this file.

Broken storage commit protocols: an fsync-free footer write, a rename
commit over unsynced bytes, and an fsync on an unflushed buffer — with
a fully durable counterpart proving the clean protocol stays quiet.
"""

import os


def fsync_free_footer(path, payload, footer_bytes):
    fh = open(path, "r+b")
    fh.write(payload)
    fh.write(footer_bytes)  # W902: footer never fsynced on any path
    fh.flush()
    fh.close()


def unsynced_commit(tmp, final, data):
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, final)  # W901: data still volatile at the commit


def fsync_unflushed(path, data):
    fh = open(path, "wb")
    fh.write(data)
    os.fsync(fh.fileno())  # W903: userspace buffer not flushed
    fh.close()


def durable_commit(tmp, final, data, footer_bytes):
    # ok: the full write -> flush -> fsync -> commit protocol
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.write(footer_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
