"""The repo's end-to-end benchmark; see ``README.md`` beside this file."""
