"""End-to-end benchmark of the ABCCC reproduction (see README.md)."""
