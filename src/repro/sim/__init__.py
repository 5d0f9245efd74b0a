"""Discrete-event simulation substrate: engine, network and machines."""
