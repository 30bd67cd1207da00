"""Sweep engine, unit conversion, verification harness and CLI, one submodule each."""
