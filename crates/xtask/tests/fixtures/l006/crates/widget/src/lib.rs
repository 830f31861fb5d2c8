//! Fixture widget service: its opcodes are the rows of `widget_ops!`
//! (stub and dispatch arm would be generated from them), so only the
//! spec-conformance checks fire.

pub mod api;
