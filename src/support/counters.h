/// @file
/// Counter tables.  A module declares its counters once, as an X-macro
/// `TABLE(X)` that expands `X(type, name)` per counter, and generates
/// every struct field, snapshot copy, report row and wire codec entry
/// from that table — a new counter is one new row.

#pragma once

/// One plain-struct field per row, zero-initialized.
#define PARAPROX_COUNTER_FIELD(type, name) type name = 0;
