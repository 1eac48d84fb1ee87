"""Participatory-budgeting rules, axiom checks, culture generation, and experiments."""
