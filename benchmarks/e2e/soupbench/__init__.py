"""The end-to-end benchmark of the SOUP reproduction (see ../README.md)."""
