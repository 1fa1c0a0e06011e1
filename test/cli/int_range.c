int x = 99999999999999999999; void main() { print(x); }
