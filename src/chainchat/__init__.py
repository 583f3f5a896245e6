"""End-to-end encrypted messaging over a permissioned certificate chain.

Each name is imported from the module that defines it (``chainchat.client``,
``chainchat.stack`` and so on). The package root imports nothing, so a
process loads only the modules it uses: the server never loads the client.
"""
